(** Level 4: RTL generation and formal verification.

    The FPGA-mapped datapaths and the interface wrapper come from the
    predefined IP library; their properties are model checked, and PCC
    judges the property set's completeness. *)

type rtl_module = {
  module_name : string;
  netlist : Symbad_hdl.Netlist.t;
  properties : Symbad_mc.Prop.t list;
}

val root_properties : unit -> Symbad_mc.Prop.t list

val modules : unit -> rtl_module list
(** DISTANCE, ROOT, the hand-written wrapper, the streaming ARGMIN and
    the synthesised IFGEN wrapper, each with its verification plan. *)

(** The rich per-engine reports of a module that actually ran. *)
type module_results = {
  lint : Symbad_lint.Lint.report;
      (** the static gate, run before any engine; properties included
          in its cone *)
  gated : bool;  (** lint errors: model checking and PCC were skipped *)
  mc_reports : Symbad_mc.Engine.report list;  (** empty when gated *)
  all_proved : bool;
  pcc : Symbad_pcc.Pcc.report option;  (** [None] when gated *)
}

type module_report = {
  module_name : string;
  cached : bool;
      (** replayed from the content-addressed verdict cache: no engine
          ran and [results] is [None] *)
  lint_verdict : Verdict.t;
  mc_verdict : Verdict.t;
  pcc_verdict : Verdict.t;
      (** the three consolidated rows every consumer (flow report,
          [verify rtl], cache) renders, in table order *)
  results : module_results option;
      (** the rich reports behind the rows; [None] on a cache hit *)
}

type result = { modules : module_report list }

val module_verdicts : module_report -> Verdict.t list
(** [[lint; mc; pcc]] — the rows in table order. *)

val verify_module :
  ?pool:Symbad_par.Par.pool ->
  ?cache:Symbad_cache.Cache.t ->
  ?gov:Symbad_gov.Gov.t ->
  ?escalate:bool ->
  rtl_module ->
  module_report
(** Model checking runs BMC to depth 12; PCC checks its miters to depth
    6 over four stuck-at bits per register.  [pool] fans the per-fault
    PCC checks and per-property model-checking runs across domains;
    verdicts are identical at any pool width.
    The lint gate runs first over a small budget slice; lint {e errors}
    (never warnings or governor skips) gate the expensive engines off —
    the module report then carries the diagnostics instead of MC/PCC
    results.  [escalate] (default off) additionally dispatches every
    lint warning that carries a proof obligation to the model checker
    over its own thin slice ({!Symbad_lint.Lint.escalate}) {e before}
    the gate, so a disproved warning gates the module with its
    counterexample attached.  [gov] governs the rest of the module:
    half the remaining
    budget is sliced off for model checking, PCC runs over what is
    left; exhausted shares degrade to [Unknown] / [Unresolved] partial
    reports.

    [cache] consults the content-addressed verdict store first: a hit
    replays the stored rows (marked [cached], governor uncharged, no
    engine runs); a miss runs everything and stores the rows back iff
    the result is fully conclusive — every property proved, no
    unresolved PCC faults, clean ungated lint, no exhaustion and no
    wall-clock deadline on the budget.  Partial or budget-dependent
    results are never cached. *)

val run :
  ?pool:Symbad_par.Par.pool ->
  ?cache:Symbad_cache.Cache.t ->
  ?gov:Symbad_gov.Gov.t ->
  ?escalate:bool ->
  unit ->
  result
(** Verify every case-study module with {!verify_module}.  [gov]'s
    remaining budget is split near-equally across the modules before
    any verification runs. *)

val pp : Format.formatter -> result -> unit
