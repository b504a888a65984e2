(* SAT-based test generation (the formal engine of Laerte++).

   Works on the RTL view of a module: to cover the bit-coverage point
   "output o, bit i, polarity v at depth d", it asks the model checker
   for a reset path driving that bit to that polarity, posed as BMC of
   the invariant "never that polarity".  Complete on the covered depth:
   if every bound holds the point is formally unreachable and excluded
   from the denominator — something no simulation-based engine can
   conclude. *)

module Netlist = Symbad_hdl.Netlist
module Expr = Symbad_hdl.Expr
module Mc = Symbad_mc

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
  let never_goal = if target.polarity then Expr.not_ bit_expr else bit_expr in
  let prop =
    Mc.Prop.make
      ~name:(Printf.sprintf "cover %s[%d]" target.output target.bit)
      never_goal
  in
  match Mc.Session.bmc ?gov (Mc.Session.create nl prop) ~depth:max_depth with
  | Mc.Session.Base_cex tr ->
      (* the trace's input rows are in netlist input order *)
      Test
        (List.map
           (fun (f : Mc.Trace.frame) -> Array.of_list (List.map snd f.inputs))
           tr)
  | Mc.Session.Base_holds -> Unreachable
  | Mc.Session.Base_unknown -> Budget_exceeded

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
