(* SAT-based test generation (the formal engine of Laerte++).

   Works on the RTL view of a module: to cover the bit-coverage point
   "output o, bit i, polarity v at depth d", it asks the SAT solver for
   an input sequence driving that bit to that polarity, by unrolling the
   netlist.  Complete on the covered depth: if the solver says UNSAT the
   point is formally unreachable and excluded from the denominator —
   something no simulation-based engine can conclude. *)

module Solver = Symbad_sat.Solver
module Hdl = Symbad_hdl
module Netlist = Symbad_hdl.Netlist
module Unroll = Symbad_hdl.Unroll
module Expr = Symbad_hdl.Expr

type target = { output : string; bit : int; polarity : bool }

type outcome =
  | Test of int array list  (* input vectors, one per cycle *)
  | Unreachable  (* proven at every depth up to the bound *)
  | Budget_exceeded  (* the governor's budget ran out *)

let all_targets nl =
  List.concat_map
    (fun (name, e) ->
      let w = Netlist.expr_width nl e in
      List.concat_map
        (fun bit ->
          [ { output = name; bit; polarity = false };
            { output = name; bit; polarity = true } ])
        (List.init w (fun i -> i)))
    (Netlist.outputs nl)

(* Pack one frame's inputs into a vector following the netlist order. *)
let inputs_at solver u frame nl =
  Array.of_list
    (List.map (fun (n, _) -> Unroll.input_value solver u frame n)
       (Netlist.inputs nl))

let cover_target ?(max_depth = 8) ?gov nl target =
  let out_expr =
    match Netlist.find_output nl target.output with
    | Some e -> e
    | None -> invalid_arg ("Sat_engine: no output " ^ target.output)
  in
  let w = Netlist.expr_width nl out_expr in
  if target.bit < 0 || target.bit >= w then
    invalid_arg "Sat_engine: bit out of range";
  let bit_expr = Expr.slice out_expr ~hi:target.bit ~lo:target.bit in
  let goal =
    if target.polarity then bit_expr
    else Expr.not_ bit_expr
  in
  let rec at k =
    if k > max_depth then Unreachable
    else begin
      let solver = Solver.create 0 in
      let u = Unroll.create ~init:Unroll.Reset solver nl in
      Unroll.unroll_to u (k + 1);
      Solver.add_clause solver [ Unroll.bool_lit u k goal ];
      match Solver.solve ?gov solver with
      | Solver.Sat ->
          Test (List.init (k + 1) (fun i -> inputs_at solver u i nl))
      | Solver.Unsat -> at (k + 1)
      | Solver.Unknown -> Budget_exceeded
    end
  in
  at 0

type report = {
  covered : int;
  unreachable : int;
  unresolved : int;
  tests : int array list list;  (* one input sequence per covered target *)
}

(* Chase every output-bit polarity of the netlist. *)
let generate ?(max_depth = 8) ?gov nl =
  let targets = all_targets nl in
  let covered = ref 0 and unreachable = ref 0 and unresolved = ref 0 in
  let tests = ref [] in
  List.iter
    (fun t ->
      match cover_target ~max_depth ?gov nl t with
      | Test seq ->
          incr covered;
          tests := seq :: !tests
      | Unreachable -> incr unreachable
      | Budget_exceeded -> incr unresolved)
    targets;
  {
    covered = !covered;
    unreachable = !unreachable;
    unresolved = !unresolved;
    tests = List.rev !tests;
  }

let pp_report fmt r =
  Fmt.pf fmt "covered %d, unreachable %d, unresolved %d" r.covered
    r.unreachable r.unresolved
