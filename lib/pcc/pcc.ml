(* Property Coverage Checker.

   "How many properties should the verification engineer define to
   completely check the implementation?" — PCC answers by fault
   injection: a property set is complete when every detectable
   high-level fault makes at least one property fail.  Surviving faults
   witness behaviours no property constrains, i.e. missing properties. *)

module Netlist = Symbad_hdl.Netlist

type fault_status =
  | Covered of string  (* name of a property that fails on the mutant *)
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
        | Session.Base_cex _ -> Covered (Symbad_mc.Prop.name p)
        | Session.Base_holds -> go ~exhausted rest
        | Session.Base_unknown -> go ~exhausted:true rest)
  in
  go ~exhausted:false props

let check_fault ~depth ~gov nl props fault =
  if Gov.out_of_budget gov then { fault; status = Unresolved }
  else begin
    (* one pattern per fault classified: the governed unit of PCC work *)
    Gov.charge_patterns gov 1;
    let mutant = Fault.apply nl fault in
    let status =
      match Miter.detectable ~depth ~gov nl mutant with
      | `Undetectable_within _ -> Undetectable
      | `Resource_out -> Unresolved
      | `Detectable _ -> classify_detectable ~depth ~gov mutant props
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
          (fun (fault, g) ->
            check_fault ~depth ~gov:g nl props fault)
          (List.combine faults shares)
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
    properties = List.map Symbad_mc.Prop.name props;
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

let pp_status fmt = function
  | Covered p -> Fmt.pf fmt "covered by %s" p
  | Uncovered -> Fmt.string fmt "UNCOVERED"
  | Undetectable -> Fmt.string fmt "undetectable"
  | Unresolved -> Fmt.string fmt "unresolved"

let pp fmt r =
  Fmt.pf fmt "PCC %s: %d properties, %d faults, %d detectable, %d covered (%.0f%%)@."
    r.design (List.length r.properties) (List.length r.faults) r.detectable
    r.covered (100. *. r.coverage);
  List.iter
    (fun fr ->
      match fr.status with
      | Uncovered -> Fmt.pf fmt "  missing property for: %s@." (Fault.to_string fr.fault)
      | Covered _ | Undetectable | Unresolved -> ())
    r.faults
