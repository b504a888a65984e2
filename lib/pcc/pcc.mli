(** The Property Coverage Checker.

    A property set is complete when every detectable high-level fault
    makes at least one property fail; surviving faults witness
    behaviours no property constrains — missing properties.

    Each fault is simulated first: seeded random input sequences of
    depth + 1 cycles from reset run on the original and the mutant.  An
    output difference proves the fault detectable and a property failure
    on the mutant covers it — each is a bounded counterexample in its
    own right — and SAT decides only what simulation did not witness.
    A fault is covered only once it is known detectable. *)

type fault_status =
  | Covered of { property : string; witness : Symbad_mc.Trace.t }
      (** [property] fails on the mutant; [witness] is a run of the
          mutant from reset that breaks it within depth + 1 states
          (the simulated sequence, or BMC's counterexample) *)
  | Uncovered  (** detectable, yet every property passes: a gap *)
  | Undetectable  (** no output difference within the bound *)
  | Unresolved
      (** the governor's budget (conflict allowance or deadline) ran
          out before the fault could be classified:
          during the detectability check, or during a property check
          with no other property falsifying the mutant *)

type fault_report = { fault : Fault.t; status : fault_status }

type report = {
  design : string;
  properties : string list;
  faults : fault_report list;
  detectable : int;
  covered : int;
  coverage : float;  (** covered / detectable *)
}

val run :
  ?pool:Symbad_par.Par.pool ->
  ?depth:int ->
  ?max_reg_bits:int ->
  ?gov:Symbad_gov.Gov.t ->
  Symbad_hdl.Netlist.t ->
  Symbad_mc.Prop.t list ->
  report
(** Fault detectability checks run one job per fault on [pool]
    (sequential when omitted); the report is identical at any pool
    width: each fault's stimulus is seeded from the design's name and
    the fault's index alone.  Faults simulation covers outright, with
    no SAT call, are counted in the [pcc.sim_covered] Obs counter.

    [gov]'s remaining budget is split across the faults before the
    fan-out (one pattern charged per fault classified); faults whose
    share is exhausted are reported [Unresolved], so an expired budget
    still yields a full report listing what was classified — the
    partial result. *)

val uncovered_faults : report -> Fault.t list
(** The faults demanding new properties. *)
