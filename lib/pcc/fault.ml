(* High-level fault model for property-coverage checking.

   Faults are netlist mutations in the spirit of the bit-coverage fault
   model: a register bit stuck at 0/1, or a mux (branch) selector stuck
   at a constant.  A fault is "detectable" if some input sequence makes a
   primary output differ from the fault-free design; a property set
   "covers" it if some property fails on the faulty design. *)

module Expr = Symbad_hdl.Expr
module Netlist = Symbad_hdl.Netlist
module Bitvec = Symbad_hdl.Bitvec

type t =
  | Reg_stuck of { reg : string; bit : int; value : bool }
  | Cond_stuck of { index : int; value : bool }
      (* [index]-th mux selector in traversal order over all register
         next-functions then outputs *)

let to_string = function
  | Reg_stuck { reg; bit; value } ->
      Printf.sprintf "%s[%d]/sa%d" reg bit (if value then 1 else 0)
  | Cond_stuck { index; value } ->
      Printf.sprintf "cond%d/stuck-%s" index (if value then "T" else "F")

let rec count_muxes (e : Expr.t) =
  match e with
  | Expr.Const _ | Expr.Input _ | Expr.Reg _ -> 0
  | Expr.Unop (_, a) | Expr.Slice (a, _, _) -> count_muxes a
  | Expr.Binop (_, a, b) | Expr.Concat (a, b) -> count_muxes a + count_muxes b
  | Expr.Mux (s, t, f) -> 1 + count_muxes s + count_muxes t + count_muxes f

let netlist_muxes nl =
  List.fold_left
    (fun acc (r : Netlist.register) -> acc + count_muxes r.Netlist.next)
    0 (Netlist.registers nl)
  + List.fold_left (fun acc (_, e) -> acc + count_muxes e) 0
      (Netlist.outputs nl)

(* Enumerate all faults of a netlist.  [max_reg_bits] caps the stuck-at
   faults taken per register (LSB-first) to keep fault lists proportionate
   on wide datapaths. *)
let enumerate ?(max_reg_bits = 8) nl =
  let reg_faults =
    List.concat_map
      (fun (r : Netlist.register) ->
        let bits = min r.Netlist.width max_reg_bits in
        List.concat_map
          (fun bit ->
            [
              Reg_stuck { reg = r.Netlist.name; bit; value = false };
              Reg_stuck { reg = r.Netlist.name; bit; value = true };
            ])
          (List.init bits (fun i -> i)))
      (Netlist.registers nl)
  in
  let cond_faults =
    List.concat_map
      (fun index ->
        [ Cond_stuck { index; value = false }; Cond_stuck { index; value = true } ])
      (List.init (netlist_muxes nl) (fun i -> i))
  in
  reg_faults @ cond_faults

(* Force bit [bit] of [e] (of width [width]) to [value]. *)
let force_bit e ~width ~bit ~value =
  if value then
    Expr.or_ e (Expr.const ~width (1 lsl bit))
  else
    Expr.and_ e (Expr.const ~width (((1 lsl width) - 1) lxor (1 lsl bit)))

(* Replace the [index]-th mux selector by a constant.  Muxes are
   numbered in pre-order over [exprs]: a mux, then the muxes of its
   selector, its else arm and its then arm, in that order; a [Binop]'s or
   [Concat]'s right operand before its left (the order of [Expr.map]).  The
   fault names of every report rest on this numbering. *)
let stuck_cond ~index ~value exprs =
  let counter = ref 0 in
  let rec rewrite (e : Expr.t) =
    match e with
    | Expr.Mux (s, t, f) ->
        let my_index = !counter in
        incr counter;
        let s =
          if my_index = index then Expr.const ~width:1 (if value then 1 else 0)
          else rewrite s
        in
        let f = rewrite f in
        let t = rewrite t in
        Expr.Mux (s, t, f)
    | e -> Expr.map rewrite e
  in
  List.map rewrite exprs

(* Apply a fault, producing the mutated netlist. *)
let apply nl fault =
  match fault with
  | Reg_stuck { reg; bit; value } ->
      let registers =
        List.map
          (fun (r : Netlist.register) ->
            if String.equal r.Netlist.name reg then begin
              if bit >= r.Netlist.width then
                invalid_arg "Fault.apply: bit out of range";
              let init_v = Bitvec.to_int r.Netlist.init in
              let init_v =
                if value then init_v lor (1 lsl bit)
                else init_v land (lnot (1 lsl bit))
              in
              {
                r with
                Netlist.init = Bitvec.make ~width:r.Netlist.width init_v;
                next =
                  force_bit r.Netlist.next ~width:r.Netlist.width ~bit ~value;
              }
            end
            else r)
          (Netlist.registers nl)
      in
      if not (List.exists (fun (r : Netlist.register) ->
                  String.equal r.Netlist.name reg) registers)
      then invalid_arg ("Fault.apply: no register " ^ reg);
      Netlist.make
        ~name:(Netlist.name nl ^ "#" ^ to_string fault)
        ~inputs:(Netlist.inputs nl) ~registers ~outputs:(Netlist.outputs nl)
  | Cond_stuck { index; value } ->
      let next_exprs =
        List.map (fun (r : Netlist.register) -> r.Netlist.next)
          (Netlist.registers nl)
      in
      let out_exprs = List.map snd (Netlist.outputs nl) in
      let rewritten = stuck_cond ~index ~value (next_exprs @ out_exprs) in
      let n_regs = List.length next_exprs in
      let registers =
        List.mapi
          (fun i (r : Netlist.register) ->
            { r with Netlist.next = List.nth rewritten i })
          (Netlist.registers nl)
      in
      let outputs =
        List.mapi
          (fun i (n, _) -> (n, List.nth rewritten (n_regs + i)))
          (Netlist.outputs nl)
      in
      Netlist.make
        ~name:(Netlist.name nl ^ "#" ^ to_string fault)
        ~inputs:(Netlist.inputs nl) ~registers ~outputs
