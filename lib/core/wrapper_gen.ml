(* Automated interface synthesis.

   "Automated interface synthesis is part of the foreseeable options,
   and also checkers for those interfaces could be automatically
   generated" — this module implements both options: given an interface
   specification, it synthesises the RTL wrapper that converts the HW
   module's req/ack protocol to the transactional side's take/valid
   protocol, and it derives the checker properties from the same
   specification, so the wrapper is verified against its own spec by
   construction. *)

type spec = {
  interface_name : string;
  data_width : int;
  depth : int;  (* buffer slots, 1 or 2 *)
}

let make_spec ?(interface_name = "wrapper") ?(data_width = 8) ?(depth = 1) () =
  if data_width < 1 || data_width > 32 then
    invalid_arg "Wrapper_gen.make_spec: data_width";
  if depth < 1 || depth > 2 then invalid_arg "Wrapper_gen.make_spec: depth";
  { interface_name; data_width; depth }

module Expr = Symbad_hdl.Expr
module Netlist = Symbad_hdl.Netlist
module Bitvec = Symbad_hdl.Bitvec
module Rtl_lib = Symbad_hdl.Rtl_lib

let tru = Expr.const ~width:1 1
let fls = Expr.const ~width:1 0

(* One-slot wrapper: a register [buf0] guarded by [full0]. *)
let synthesize_depth1 spec =
  let full = Expr.reg "full0" and buf = Expr.reg "buf0" in
  let req = Expr.input "req"
  and data = Expr.input "data"
  and take = Expr.input "take" in
  let accept = Expr.and_ req (Expr.not_ full) in
  let drain = Expr.and_ take full in
  Netlist.make ~name:spec.interface_name
    ~inputs:[ ("req", 1); ("data", spec.data_width); ("take", 1) ]
    ~registers:
      [
        { Netlist.name = "full0"; width = 1; init = Bitvec.zero ~width:1;
          next = Expr.mux accept tru (Expr.mux drain fls full) };
        { Netlist.name = "buf0"; width = spec.data_width;
          init = Bitvec.zero ~width:spec.data_width;
          next = Expr.mux accept data buf };
      ]
    ~outputs:[ ("ack", accept); ("valid", full); ("out", buf) ]

(* Two-slot skid buffer: slot 0 is the head (drained first), slot 1 the
   tail.  Accept while the tail is free; refill the head from the tail
   when the head drains. *)
let synthesize_depth2 spec =
  let full0 = Expr.reg "full0"
  and full1 = Expr.reg "full1"
  and buf0 = Expr.reg "buf0"
  and buf1 = Expr.reg "buf1" in
  let req = Expr.input "req"
  and data = Expr.input "data"
  and take = Expr.input "take" in
  let drain = Expr.and_ take full0 in
  (* where does an accepted word go?  head if the head is (becoming)
     free, else tail — and the tail must be free to accept *)
  let head_free_after = Expr.or_ (Expr.not_ full0) drain in
  let accept = Expr.and_ req (Expr.or_ (Expr.not_ full1) head_free_after) in
  let to_head = Expr.and_ accept (Expr.and_ head_free_after (Expr.not_ full1)) in
  let to_tail = Expr.and_ accept (Expr.not_ to_head) in
  let promote = Expr.and_ full1 head_free_after in
  let next_full0 =
    (* head occupied next cycle if: stays (full0 && !drain), promoted
       from tail, or directly accepted *)
    Expr.or_ (Expr.and_ full0 (Expr.not_ drain)) (Expr.or_ promote to_head)
  in
  let next_full1 = Expr.or_ to_tail (Expr.and_ full1 (Expr.not_ promote)) in
  let next_buf0 =
    Expr.mux to_head data (Expr.mux promote buf1 buf0)
  in
  let next_buf1 = Expr.mux to_tail data buf1 in
  Netlist.make ~name:spec.interface_name
    ~inputs:[ ("req", 1); ("data", spec.data_width); ("take", 1) ]
    ~registers:
      [
        { Netlist.name = "full0"; width = 1; init = Bitvec.zero ~width:1;
          next = next_full0 };
        { Netlist.name = "full1"; width = 1; init = Bitvec.zero ~width:1;
          next = next_full1 };
        { Netlist.name = "buf0"; width = spec.data_width;
          init = Bitvec.zero ~width:spec.data_width; next = next_buf0 };
        { Netlist.name = "buf1"; width = spec.data_width;
          init = Bitvec.zero ~width:spec.data_width; next = next_buf1 };
      ]
    ~outputs:[ ("ack", accept); ("valid", full0); ("out", buf0) ]

let synthesize spec =
  match spec.depth with
  | 1 -> synthesize_depth1 spec
  | 2 -> synthesize_depth2 spec
  | _ -> assert false

(* Checker generation: the interface-correctness properties derived
   mechanically from the specification.  They only mention the
   interface signals and the occupancy flags, so the same generator
   covers every synthesised wrapper. *)
let checkers spec nl =
  let module P = struct
    let make = fun n f -> Symbad_mc.Prop.make ~name:(spec.interface_name ^ "." ^ n) f
    let make_step = fun n f ->
      Symbad_mc.Prop.make_step ~name:(spec.interface_name ^ "." ^ n) f
  end in
  let out name =
    match Netlist.find_output nl name with
    | Some e -> e
    | None -> invalid_arg ("Wrapper_gen.checkers: missing output " ^ name)
  in
  let ack = out "ack" and valid = out "valid" in
  let full0 = Expr.reg "full0" in
  let occupied_slots =
    if spec.depth = 1 then [ Expr.reg "full0" ]
    else [ Expr.reg "full0"; Expr.reg "full1" ]
  in
  let all_full =
    List.fold_left Expr.and_ tru occupied_slots
  in
  let next = Symbad_mc.Prop.next in
  let implies = Symbad_mc.Prop.implies in
  [
    (* an acknowledgement needs a request *)
    P.make "ack_implies_req" (implies ack (Expr.input "req"));
    (* no acceptance when every slot is occupied, unless a word is being
       drained in the same cycle (flow-through): no data loss *)
    P.make "no_ack_when_full"
      (Expr.not_
         (Expr.and_ ack
            (Expr.and_ all_full
               (Expr.not_ (Expr.and_ (Expr.input "take") full0)))));
    (* the TL side only sees valid data when the head is occupied *)
    P.make "valid_iff_head" (Expr.eq valid full0);
    (* held head data is stable until taken *)
    P.make_step "held_data_stable"
      (implies
         (Expr.and_ full0 (Expr.not_ (Expr.input "take")))
         (Expr.eq (next (Expr.reg "buf0")) (Expr.reg "buf0")));
    (* taking the head frees capacity: after take && !req, not all full *)
    P.make_step "take_frees_capacity"
      (implies
         (Expr.and_ (Expr.and_ full0 (Expr.input "take"))
            (Expr.not_ (Expr.input "req")))
         (Expr.not_
            (List.fold_left Expr.and_ tru (List.map next occupied_slots))));
    (* occupancy never decreases by more than the one word taken and
       never increases by more than the one word accepted *)
    P.make_step "occupancy_conservation"
      (let width = 2 in
       let count =
         List.fold_left
           (fun acc f -> Expr.add acc (Rtl_lib.zext f ~from:1 ~to_:width))
           (Expr.const ~width 0) occupied_slots
       in
       let count' =
         List.fold_left
           (fun acc f -> Expr.add acc (Rtl_lib.zext (next f) ~from:1 ~to_:width))
           (Expr.const ~width 0) occupied_slots
       in
       let took = Expr.and_ (Expr.input "take") full0 in
       let expected =
         Expr.sub
           (Expr.add count (Rtl_lib.zext ack ~from:1 ~to_:width))
           (Rtl_lib.zext took ~from:1 ~to_:width)
       in
       Expr.eq count' expected);
  ]
  (* data-path checkers: where does an accepted word go, and how does it
     reach the head?  Derived from the occupancy flags per depth. *)
  @ (if spec.depth = 1 then
       [
         P.make_step "accepted_data_stored"
           (implies ack (Expr.eq (next (Expr.reg "buf0")) (Expr.input "data")));
       ]
     else begin
       let full1 = Expr.reg "full1" in
       let head_free_after =
         Expr.or_ (Expr.not_ full0) (Expr.and_ (Expr.input "take") full0)
       in
       let to_head = Expr.and_ ack (Expr.and_ head_free_after (Expr.not_ full1)) in
       let promote = Expr.and_ full1 head_free_after in
       [
         P.make_step "accepted_data_to_head"
           (implies to_head
              (Expr.eq (next (Expr.reg "buf0")) (Expr.input "data")));
         P.make_step "accepted_data_to_tail"
           (implies
              (Expr.and_ ack (Expr.not_ to_head))
              (Expr.eq (next (Expr.reg "buf1")) (Expr.input "data")));
         P.make_step "tail_promoted_to_head"
           (implies (Expr.and_ promote (Expr.not_ to_head))
              (Expr.eq (next (Expr.reg "buf0")) (Expr.reg "buf1")));
         P.make_step "held_tail_stable"
           (implies
              (Expr.and_ full1
                 (Expr.not_ (Expr.or_ promote (Expr.and_ ack (Expr.not_ to_head)))))
              (Expr.eq (next (Expr.reg "buf1")) (Expr.reg "buf1")));
       ]
     end)

(* Synthesise, generate the checkers, and verify them — the push-button
   flow of the foreseeable option. *)
let synthesize_and_verify spec =
  let nl = synthesize spec in
  let props = checkers spec nl in
  let reports = Symbad_mc.Engine.check_all ~max_depth:12 nl props in
  (nl, props, reports)
