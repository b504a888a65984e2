(* Miter construction: two netlists over the same inputs, with an
   "all outputs equal" comparator.  BMC on the miter decides whether a
   fault is detectable within a bound (some input sequence makes a
   primary output differ). *)

module Expr = Symbad_hdl.Expr
module Netlist = Symbad_hdl.Netlist

let rec rename_regs prefix (e : Expr.t) =
  match e with
  | Expr.Reg n -> Expr.Reg (prefix ^ n)
  | e -> Expr.map (rename_regs prefix) e

(* Build the miter of [a] and [b]; they must have identical input and
   output interfaces.  Output ["equal"] is 1 iff all outputs agree. *)
let build a b =
  if Netlist.inputs a <> Netlist.inputs b then
    invalid_arg "Miter.build: input interfaces differ";
  if List.map fst (Netlist.outputs a) <> List.map fst (Netlist.outputs b) then
    invalid_arg "Miter.build: output interfaces differ";
  let copy prefix nl =
    List.map
      (fun (r : Netlist.register) ->
        {
          r with
          Netlist.name = prefix ^ r.Netlist.name;
          next = rename_regs prefix r.Netlist.next;
        })
      (Netlist.registers nl)
  in
  let comparisons =
    List.map2
      (fun (n, ea) (_, eb) ->
        (n, Expr.eq (rename_regs "g$" ea) (rename_regs "f$" eb)))
      (Netlist.outputs a) (Netlist.outputs b)
  in
  let equal_expr =
    List.fold_left
      (fun acc (_, e) -> Expr.and_ acc e)
      (Expr.const ~width:1 1) comparisons
  in
  Netlist.make
    ~name:(Printf.sprintf "miter(%s,%s)" (Netlist.name a) (Netlist.name b))
    ~inputs:(Netlist.inputs a)
    ~registers:(copy "g$" a @ copy "f$" b)
    ~outputs:(("equal", equal_expr) :: comparisons)

(* Is there an input sequence of length <= depth after which the two
   designs disagree on some output? *)
let detectable ?(depth = 10) ?gov a b =
  let m = build a b in
  let prop =
    Symbad_mc.Prop.make ~name:"outputs_equal"
      (match Netlist.find_output m "equal" with
      | Some e -> e
      | None -> assert false)
  in
  let module Session = Symbad_mc.Session in
  match Session.bmc ?gov (Session.create m prop) ~depth with
  | Session.Base_cex tr -> `Detectable tr
  | Session.Base_holds -> `Undetectable_within depth
  | Session.Base_unknown -> `Resource_out
