(** The unified engine surface: every verification engine behind one
    call shape,

    {[ ?gov ?pool ?jobs ~seed target -> Verdict.t ]}

    [gov] is the resource governor (omitted = unlimited budget);
    [pool] reuses the caller's worker domains, [jobs] builds a pool
    scoped to the call, neither means sequential ([pool] wins when both
    are given).  [seed] drives the stochastic engines ({!atpg}) and is
    accepted — and ignored — by the deterministic ones ({!lint},
    {!model_check}, {!pcc}) so a portfolio can dispatch every engine
    through the same shape.  Verdicts are identical at any pool width.

    The fault-campaign driver answers the same shape from its own
    library ({!Symbad_resil.Campaign.check} — resil sits above core in
    the stack and cannot be re-exported here). *)

val lint :
  ?gov:Symbad_gov.Gov.t ->
  ?pool:Symbad_par.Par.pool ->
  ?jobs:int ->
  ?escalate:bool ->
  seed:int ->
  Level4.rtl_module ->
  Verdict.t
(** The static gate over the module's netlist with its properties in
    the cone ({!Symbad_lint.Lint.run_netlist} + {!Verdict.of_lint}):
    any error ⇒ [Disproved], governor-skipped rules ⇒ [Inconclusive].
    [escalate] folds model-checker verdicts into the warnings first
    ({!Symbad_lint.Lint.escalate}), so a disproved warning reads as an
    error here. *)

val model_check :
  ?gov:Symbad_gov.Gov.t ->
  ?pool:Symbad_par.Par.pool ->
  ?jobs:int ->
  ?max_depth:int ->
  seed:int ->
  Level4.rtl_module ->
  Verdict.t
(** Incremental BMC + k-induction over every property
    ({!Symbad_mc.Engine.check_all}), consolidated to one row: [Proved]
    iff all properties proved within [max_depth] (default 12). *)

val pcc :
  ?gov:Symbad_gov.Gov.t ->
  ?pool:Symbad_par.Par.pool ->
  ?jobs:int ->
  ?depth:int ->
  ?max_reg_bits:int ->
  seed:int ->
  Level4.rtl_module ->
  Verdict.t
(** Property-coverage completeness ({!Symbad_pcc.Pcc.run} +
    {!Verdict.of_pcc}): [Coverage] over detectable faults; with
    unresolved faults, a pass needs the worst case and a failure the
    best case, otherwise [Inconclusive]. *)

val atpg :
  ?gov:Symbad_gov.Gov.t ->
  ?pool:Symbad_par.Par.pool ->
  ?jobs:int ->
  seed:int ->
  unit ->
  Verdict.t
(** Laerte++-style genetic test generation over the behavioural
    hot-spot models: [Coverage] over the point universe (gate 85%),
    degrading under an exhausted governor to [Inconclusive] with the
    partial coverage; granted retries re-dispatch re-seeded (the
    portfolio retry).  This is the engine the level-1 flow step runs. *)
