(* Random small netlists for the differential qchecks: registers of
   one width 1..4 whose next-state logic mixes add/sub/mul/and/or/xor/
   not and comparator-selected muxes over inputs [a] and [b], constants
   and registers.  Some operators square one drawn subterm, so repeated
   subterms occur on purpose rather than by chance — the case structural
   hashing in the bit-blaster must get right.  Besides the first
   register, the outputs exercise the width-changing operators (neg,
   unsigned comparisons, slices, concatenations and wider wraparound
   arithmetic), so every mask an evaluator works out is compared. *)

module Expr = Symbad_hdl.Expr
module Bitvec = Symbad_hdl.Bitvec
module Netlist = Symbad_hdl.Netlist

(* Width-[width] expressions of depth [depth] over inputs [a] and [b],
   constants and the registers [regs]. *)
let expr ~width ~regs depth =
  let open QCheck.Gen in
  let m = (1 lsl width) - 1 in
  let leaf =
    oneof
      ([
         return (Expr.input "a");
         return (Expr.input "b");
         map (fun v -> Expr.const ~width v) (int_range 0 m);
       ]
      @ List.map (fun r -> return (Expr.reg r)) regs)
  in
  let rec expr depth =
    if depth = 0 then leaf
    else
      let sub_ = expr (depth - 1) in
      oneof
        [
          leaf;
          map2 Expr.add sub_ sub_;
          map2 Expr.sub sub_ sub_;
          map2 Expr.mul sub_ sub_;
          map2 Expr.and_ sub_ sub_;
          map2 Expr.or_ sub_ sub_;
          map2 Expr.xor sub_ sub_;
          map Expr.not_ sub_;
          map3 (fun c t e -> Expr.mux (Expr.ult c t) t e) leaf sub_ sub_;
          map (fun e -> Expr.mul e e) sub_;
          map2 (fun e f -> Expr.add (Expr.sub e f) e) sub_ sub_;
          map2 (fun e f -> Expr.mux (Expr.ult e f) (Expr.xor e f) e) sub_ sub_;
        ]
  in
  expr depth

(* [(netlist, width, stimulus)]: the stimulus holds [cycles] (a, b)
   input pairs. *)
let gen ~cycles =
  let open QCheck.Gen in
  let* width = int_range 1 4 in
  let* nregs = int_range 1 3 in
  let regs = List.init nregs (fun i -> Printf.sprintf "r%d" i) in
  let m = (1 lsl width) - 1 in
  let expr = expr ~width ~regs in
  let* registers =
    flatten_l
      (List.map
         (fun name ->
           let* init = int_range 0 m in
           let* next = expr 2 in
           return { Netlist.name; width; init = Bitvec.make ~width init; next })
         regs)
  in
  let* e = expr 2 in
  let* f = expr 2 in
  let* hi = int_range 0 ((2 * width) - 1) in
  let* lo = int_range 0 hi in
  let ef = Expr.concat e f and fe = Expr.concat f e in
  let* stimulus = list_repeat cycles (pair (int_range 0 m) (int_range 0 m)) in
  return
    ( Netlist.make ~name:"rand"
        ~inputs:[ ("a", width); ("b", width) ]
        ~registers
        ~outputs:
          [
            ("o", Expr.reg (List.hd regs));
            ("neg", Expr.neg e);
            ("cmp", Expr.concat (Expr.ule e f) (Expr.concat (Expr.ult f e) f));
            ("slice", Expr.slice (Expr.sub ef fe) ~hi ~lo);
            ("wide", Expr.concat (Expr.mul ef fe) (Expr.neg (Expr.add fe ef)));
          ],
      width,
      stimulus )

(* A width-1 formula over the netlist's inputs and registers; with
   [~step:true] it may also read primed registers (the next state). *)
let formula ~step nl =
  let open QCheck.Gen in
  let width = (List.hd (Netlist.registers nl)).Netlist.width in
  let names =
    List.map (fun (r : Netlist.register) -> r.Netlist.name) (Netlist.registers nl)
  in
  let primed = if step then List.map (fun r -> r ^ "'") names else [] in
  let e = expr ~width ~regs:(names @ primed) 2 in
  oneof
    [
      map2 Expr.ult e e;
      map2 Expr.ule e e;
      map2 Expr.eq e e;
      map (fun e -> Expr.slice e ~hi:0 ~lo:0) e;
    ]

(* One stimulus entry as simulator inputs. *)
let inputs ~width (va, vb) =
  [ ("a", Bitvec.make ~width va); ("b", Bitvec.make ~width vb) ]
