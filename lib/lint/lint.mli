(** The static-analysis pass framework: run rule families over a
    netlist, a reconfiguration program or a tenant set, get one
    {!report}; escalate residual warnings to the model checker.

    Rules fan out per-rule on a [Symbad_par] pool under a [Symbad_gov]
    budget slice (one rule = one pattern); the allowance is read once
    before the fan-out, so reports are identical at any [--jobs]
    width.  The fixpoint a family's rules share is computed once per
    run, before the fan-out.  Rules the governor could not afford are listed in
    [skipped_rules], never silently dropped. *)

module Expr := Symbad_hdl.Expr
module Netlist := Symbad_hdl.Netlist

type report = {
  target : string;  (** netlist / program name *)
  rules_run : string list;
  skipped_rules : string list;  (** unaffordable under the governor *)
  diagnostics : Diagnostic.t list;  (** {!Diagnostic.order}, gravest first *)
  obligations : (Diagnostic.t * Symbad_mc.Prop.t) list;
      (** the proof obligation of each [net.const-reg] and [net.range]
          finding that has one, next to the diagnostic of [diagnostics]
          it discharges (the same value), in the order {!escalate}
          dispatches them: every constancy claim in register order,
          then every no-wrap claim in site order.  No output renders
          them. *)
}

val netlist_rule_ids : string list
(** The netlist analyzer family, canonical order: the syntactic rules
    [net.width], [net.undriven], [net.multi-driven], [net.comb-loop],
    [net.unused], [net.dead-logic], [net.no-reset], then the semantic
    (abstract-interpretation) rules [net.x-prop], [net.range],
    [net.unreachable-state], [net.const-reg]. *)

val program_rule_ids : string list
(** The reconfiguration analyzer family, canonical order:
    [cfg.never-loaded], [cfg.maybe-unloaded], [cfg.unknown-config],
    [cfg.redundant-config], [cfg.unreachable-config]. *)

val run_netlist :
  ?pool:Symbad_par.Par.pool ->
  ?gov:Symbad_gov.Gov.t ->
  ?rules:string list ->
  ?properties:(string * Expr.t) list ->
  Netlist.t ->
  report
(** Lint a netlist (checked or [make_unchecked]).  [properties] are
    named width-1 formulas over the netlist's signals (primed register
    reads allowed); they extend the cone of influence and are width-
    and vacuity-checked themselves.  [rules] selects a subset (raises
    [Invalid_argument] on unknown ids).  The report carries the proof
    obligations of its [net.const-reg] and [net.range] findings, built
    from the fixpoint the semantic rules share. *)

val run_program :
  ?pool:Symbad_par.Par.pool ->
  ?gov:Symbad_gov.Gov.t ->
  ?rules:string list ->
  ?name:string ->
  Symbad_symbc.Config_info.t ->
  Symbad_symbc.Ast.program ->
  report
(** Lint a reconfiguration program against its configuration
    information ([name] labels the target, default ["program"]). *)

val run_cfg :
  ?pool:Symbad_par.Par.pool ->
  ?gov:Symbad_gov.Gov.t ->
  ?rules:string list ->
  ?name:string ->
  Symbad_symbc.Config_info.t ->
  Symbad_symbc.Cfg.t ->
  report
(** {!run_program} over an already-built (possibly hand-built) CFG. *)

val run_tenants :
  ?pool:Symbad_par.Par.pool ->
  ?gov:Symbad_gov.Gov.t ->
  ?rules:string list ->
  ?deadline_ns:int ->
  Symbad_symbc.Config_info.t ->
  (string * Symbad_symbc.Ast.program) list ->
  report
(** Admission analysis of a tenant set sharing one fabric: the
    multi-tenant schedule family over every tenant pair's interleaved
    product, under the target ["tenants"] — [sched.context-conflict]
    (an interleaved tenant may reload the shared fabric between a
    tenant's reconfiguration and its call) and [sched.wcrt] (static
    worst-case reconfiguration-time bound vs the admission deadline).
    One reconfiguration costs 1 ms; [deadline_ns] enables [sched.wcrt]
    — without it only the interference rule can fire. *)

val escalate :
  ?pool:Symbad_par.Par.pool ->
  ?gov:Symbad_gov.Gov.t ->
  ?max_depth:int ->
  Netlist.t ->
  report ->
  report
(** Lint-to-proof escalation of [report], which {!run_netlist} built
    over the netlist: every obligation of [report.obligations] whose
    diagnostic is still undischarged (still in [report.diagnostics] as
    the lint run built it) is dispatched, in that list's order, to
    {!Symbad_mc.Engine.check_all} under [gov], and the verdict is
    folded back into the diagnostic as its [discharged] annotation —
    proved demotes to [Info], disproved promotes to [Error] with the
    counterexample trace attached, inconclusive leaves the severity
    unchanged.  Diagnostics are never dropped, and escalating the
    result again dispatches nothing.  Byte-identical at any pool
    width.

    [gov] is the only bound on solver effort (omitted = unlimited):
    escalation is a lint pass, not the level-4 gate, so an obligation
    that does not settle inside the budget degrades to an
    [Inconclusive] discharge rather than stalling the report.  Every
    obligation proves or disproves within [max_depth] (default 12), or
    falls back to exact reachability, without a budget.  From the CLI,
    bound it with [symbad lint --escalate --budget N] or
    [--deadline S]. *)

val merge : target:string -> report list -> report
(** Concatenate reports into one (rule lists unioned in first-seen
    order, diagnostics re-sorted with {!Diagnostic.order}, obligations
    concatenated). *)

val errors : report -> int
val warnings : report -> int

val count_at_least : Diagnostic.severity -> report -> int
(** Diagnostics at or above the given severity. *)

val to_json : report -> Symbad_obs.Json.t
(** Timing-free by construction: byte-comparable across runs and
    [--jobs] widths.  Carries [schema_version]
    ({!Diagnostic.schema_version}) at the top level and on every
    diagnostic. *)

val to_markdown : report -> string
val pp : Format.formatter -> report -> unit
