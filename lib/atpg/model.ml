(* The device-under-verification abstraction for high-level ATPG: a
   deterministic behavioural model with declared inputs, a coverage-point
   universe, and a high-level fault list.  [run] executes the model,
   optionally recording coverage and optionally under an injected fault;
   a test detects a fault when outputs differ from the fault-free run. *)

type fault = { fid : string }

type t = {
  name : string;
  inputs : (string * int) list;  (* input name, bit width *)
  universe : Coverage.point list;
  faults : fault list;
  run : ?cover:Coverage.t -> ?fault:fault -> int array -> int array;
      (* input values (per [inputs] order, masked to width) -> outputs *)
}

type test = int array

let mask_inputs m (test : test) =
  let widths = Array.of_list (List.map snd m.inputs) in
  if Array.length test <> Array.length widths then
    invalid_arg ("Model.mask_inputs: arity for " ^ m.name);
  Array.mapi (fun i v -> v land ((1 lsl widths.(i)) - 1)) test

let run ?cover ?fault m test = m.run ?cover ?fault (mask_inputs m test)

(* Coverage accumulated by a test suite: per-test hit sets are pure, so
   they fan out on the pool; the in-order merge keeps the accumulated
   table identical to the sequential loop. *)
let coverage ?pool m tests =
  let pool = Symbad_par.Par.get pool in
  let covs =
    Symbad_par.Par.map ~label:"atpg.coverage" pool
      (fun t ->
        let c = Coverage.create () in
        ignore (run ~cover:c m t);
        c)
      tests
  in
  let c = Coverage.create () in
  List.iter (fun ci -> Coverage.merge ~into:c ci) covs;
  c

let coverage_report ?pool m tests =
  Coverage.report ~universe:m.universe (coverage ?pool m tests)

(* Fault simulation: which faults does the suite detect?  One job per
   fault; each job replays the fault-free and faulty runs itself, so the
   jobs share nothing mutable. *)
let detected_faults ?pool m tests =
  let pool = Symbad_par.Par.get pool in
  Symbad_par.Par.map ~label:"atpg.fault_sim" pool
    (fun fault ->
      (fault, List.exists (fun t -> run m t <> run ~fault m t) tests))
    m.faults
  |> List.filter_map (fun (f, detected) -> if detected then Some f else None)

let fault_coverage ?pool m tests =
  match m.faults with
  | [] -> 1.
  | faults ->
      float_of_int (List.length (detected_faults ?pool m tests))
      /. float_of_int (List.length faults)
