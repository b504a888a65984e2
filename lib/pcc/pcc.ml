(* Property Coverage Checker.

   "How many properties should the verification engineer define to
   completely check the implementation?" — PCC answers by fault
   injection: a property set is complete when every detectable
   high-level fault makes at least one property fail.  Surviving faults
   witness behaviours no property constrains, i.e. missing properties.

   Simulation comes first.  A simulated run of at most depth + 1 states
   from reset is itself a BMC counterexample, so seeded random stimulus
   on the original and the mutant witnesses the easy faults: an output
   difference proves the fault detectable (the miter would fail at that
   cycle), a property failure on the mutant covers it (Session.bmc on
   that property would fail at that bound or earlier).  SAT classifies
   only what simulation did not witness, so the covered and detectable
   counts are exactly the SAT-only ones. *)

module Netlist = Symbad_hdl.Netlist
module Simulator = Symbad_hdl.Simulator
module Bitvec = Symbad_hdl.Bitvec
module Prop = Symbad_mc.Prop
module Trace = Symbad_mc.Trace

type fault_status =
  | Covered of { property : string; witness : Trace.t }
      (* a property that fails on the mutant, and a run from reset
         that breaks it *)
  | Uncovered  (* detectable, but every property still passes *)
  | Undetectable  (* no output difference within the bound *)
  | Unresolved  (* the governor's budget ran out before a verdict *)

type fault_report = { fault : Fault.t; status : fault_status }

type report = {
  design : string;
  properties : string list;
  faults : fault_report list;
  detectable : int;
  covered : int;
  coverage : float;  (* covered / detectable *)
}

module Gov = Symbad_gov.Gov
module Session = Symbad_mc.Session
module Obs = Symbad_obs.Obs

(* Random input sequences simulated per fault before any SAT call. *)
let sequences = 256

(* What simulation witnessed on one fault. *)
type witnesses = {
  differs : bool;  (* some output differed from the original's *)
  broken : (string * Trace.t) option;  (* the first property to fail *)
}

(* A value drawn uniformly over [w] bits ([Random.State.bits] gives only
   30). *)
let draw st w =
  if w <= 30 then Random.State.bits st land ((1 lsl w) - 1)
  else Int64.to_int (Random.State.bits64 st) land ((1 lsl w) - 1)

(* The run that broke a property, as a trace of [frames] states of the
   mutant from reset under [rows] (one input row per frame; a step
   property's successor frame has no row and reads zeros). *)
let replay mutant rows frames =
  let sim = Simulator.create mutant in
  let inputs = Netlist.inputs mutant in
  let rec go i =
    if i = frames then []
    else begin
      let row =
        if i < Array.length rows then rows.(i)
        else Array.make (List.length inputs) 0
      in
      Simulator.set_inputs sim row;
      let frame =
        {
          Trace.inputs = List.mapi (fun j (n, _) -> (n, row.(j))) inputs;
          regs =
            List.map (fun (n, v) -> (n, Bitvec.to_int v)) (Simulator.state sim);
        }
      in
      Simulator.tick sim;
      frame :: go (i + 1)
    end
  in
  go 0

(* Simulate [sequences] random input sequences of depth + 1 cycles from
   reset on [nl] and [mutant] side by side, seeded from [seed] alone so
   the result does not depend on which job runs the fault.  Invariants
   are checked at each state, step properties across each edge, so the
   mutant takes depth + 1 edges.  Stops once both witnesses are in. *)
let simulate ~depth ~seed nl mutant props =
  let good = Simulator.create nl and bad = Simulator.create mutant in
  let outputs sim nl =
    Array.of_list
      (List.map (fun (_, e) -> Simulator.compile sim e) (Netlist.outputs nl))
  in
  let good_out = outputs good nl and bad_out = outputs bad mutant in
  let checks props =
    Array.of_list
      (List.map
         (fun p ->
           let compile =
             if Prop.is_step p then Simulator.compile_step
             else Simulator.compile
           in
           (Prop.name p, compile bad (Prop.formula p)))
         props)
  in
  let steps, invariants = List.partition Prop.is_step props in
  let invariants = checks invariants and steps = checks steps in
  let widths = Array.of_list (List.map snd (Netlist.inputs nl)) in
  let rows = Array.make_matrix (depth + 1) (Array.length widths) 0 in
  let st = Random.State.make seed in
  let differs = ref false and broken = ref None in
  let done_ () = !differs && (Option.is_some !broken || props = []) in
  (* the first failing check of [checks], witnessed by a trace of
     [frames] states *)
  let check checks cycle frames =
    if Option.is_none !broken then
      match Array.find_opt (fun (_, holds) -> holds () = 0) checks with
      | Some (name, _) ->
          let witness = replay mutant (Array.sub rows 0 (cycle + 1)) frames in
          broken := Some (name, witness)
      | None -> ()
  in
  let seq = ref 0 in
  while !seq < sequences && not (done_ ()) do
    Simulator.reset good;
    Simulator.reset bad;
    let cycle = ref 0 in
    while !cycle <= depth && not (done_ ()) do
      let row = rows.(!cycle) in
      Array.iteri (fun j w -> row.(j) <- draw st w) widths;
      Simulator.set_inputs bad row;
      if not !differs then begin
        Simulator.set_inputs good row;
        if Array.exists2 (fun g b -> g () <> b ()) good_out bad_out then
          differs := true;
        Simulator.tick good
      end;
      check invariants !cycle (!cycle + 1);
      Simulator.tick bad;
      check steps !cycle (!cycle + 2);
      incr cycle
    done;
    incr seq
  done;
  { differs = !differs; broken = !broken }

(* Classify a detectable mutant: covered by the first property BMC
   falsifies within [depth] cycles, uncovered when every property holds.
   A property whose check ran out of budget proves nothing, so when no
   later property falsifies the fault stays unresolved — never a
   missing property. *)
let classify_detectable ~depth ~gov mutant props =
  let rec go ~exhausted = function
    | [] -> if exhausted then Unresolved else Uncovered
    | p :: rest -> (
        match Session.bmc ~gov (Session.create mutant p) ~depth with
        | Session.Base_cex witness ->
            Covered { property = Prop.name p; witness }
        | Session.Base_holds -> go ~exhausted rest
        | Session.Base_unknown -> go ~exhausted:true rest)
  in
  go ~exhausted:false props

(* Detectability first: a property failure alone never covers a fault,
   since a fault no output can reveal needs no property. *)
let check_fault ~depth ~gov nl props (index, fault) =
  if Gov.out_of_budget gov then { fault; status = Unresolved }
  else begin
    (* one pattern per fault classified: the governed unit of PCC work *)
    Gov.charge_patterns gov 1;
    let mutant = Fault.apply nl fault in
    let seen =
      simulate ~depth ~seed:[| Hashtbl.hash (Netlist.name nl); index |] nl
        mutant props
    in
    let covered () =
      match seen.broken with
      | Some (property, witness) -> Covered { property; witness }
      | None -> classify_detectable ~depth ~gov mutant props
    in
    let status =
      if seen.differs then begin
        if Option.is_some seen.broken && Obs.enabled () then
          Obs.incr_counter "pcc.sim_covered";
        covered ()
      end
      else
        match Miter.detectable ~depth ~gov nl mutant with
        | `Undetectable_within _ -> Undetectable
        | `Resource_out -> Unresolved
        | `Detectable _ -> covered ()
    in
    { fault; status }
  end

let run ?pool ?(depth = 10) ?max_reg_bits ?gov nl props =
  let pool = Symbad_par.Par.get pool in
  let gov = Gov.get gov in
  let faults = Fault.enumerate ?max_reg_bits nl in
  (* one job per injected fault: each check builds its own mutant,
     miter and solvers, so the fan-out is pure and the in-order
     reduction makes the parallel report equal the sequential one.
     Each fault gets its budget share before the fan-out, so the
     classification is deterministic at any pool width; exhausted
     shares classify their fault Unresolved — the partial result. *)
  let reports =
    match faults with
    | [] -> []
    | faults ->
        let shares = Gov.split ~label:"pcc.faults" gov (List.length faults) in
        Symbad_par.Par.map ~label:"pcc.faults" pool
          (fun (fault, g) -> check_fault ~depth ~gov:g nl props fault)
          (List.combine (List.mapi (fun i f -> (i, f)) faults) shares)
  in
  let detectable =
    List.length
      (List.filter
         (fun r ->
           match r.status with
           | Covered _ | Uncovered -> true
           | Undetectable | Unresolved -> false)
         reports)
  in
  let covered =
    List.length
      (List.filter
         (fun r -> match r.status with Covered _ -> true | _ -> false)
         reports)
  in
  {
    design = Netlist.name nl;
    properties = List.map Prop.name props;
    faults = reports;
    detectable;
    covered;
    coverage =
      (if detectable = 0 then 1.
       else float_of_int covered /. float_of_int detectable);
  }

let uncovered_faults report =
  List.filter_map
    (fun r -> match r.status with Uncovered -> Some r.fault | _ -> None)
    report.faults
