(** The Property Coverage Checker.

    A property set is complete when every detectable high-level fault
    makes at least one property fail; surviving faults witness
    behaviours no property constrains — missing properties. *)

type fault_status =
  | Covered of string  (** name of a property failing on the mutant *)
  | Uncovered  (** detectable, yet every property passes: a gap *)
  | Undetectable  (** no output difference within the bound *)
  | Unresolved
      (** the governor's budget (conflict allowance, deadline or
          cancellation) ran out before the fault could be classified:
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
    width.

    [gov]'s remaining budget is split across the faults before the
    fan-out (one pattern charged per fault classified); faults whose
    share is exhausted are reported [Unresolved], so an expired budget
    still yields a full report listing what was classified — the
    partial result. *)

val uncovered_faults : report -> Fault.t list
(** The faults demanding new properties. *)

val pp_status : Format.formatter -> fault_status -> unit
val pp : Format.formatter -> report -> unit
