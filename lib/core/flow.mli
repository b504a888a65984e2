(** The complete Symbad flow (Figure 1): run the four levels on the face
    recognition case study with every verification the methodology
    prescribes, carrying all reports. *)

type level_report = {
  level : int;
  title : string;
  host_seconds : float;
  latency_ns : int option;
  sim_speed_khz : float option;
  verifications : Verdict.t list;
      (** every check of the level — see [lib/core/verdict.mli] for the
          outcome vocabulary, including the [Inconclusive] verdicts a
          resource-governed run degrades to *)
}

type t = {
  workload : Face_app.workload;
  levels : level_report list;
  mapping : Mapping.t;  (** final (level-3) mapping *)
  all_passed : bool;
}

val run :
  ?pool:Symbad_par.Par.pool ->
  ?cache:Symbad_cache.Cache.t ->
  ?escalate:bool ->
  ?seed:int ->
  ?workload:Face_app.workload ->
  ?gov:Symbad_gov.Gov.t ->
  unit ->
  t
(** Builds one {!Face_app.case_study} of [workload] (default
    {!Face_app.default_workload}) and runs the four levels on it in
    order, each reading the levels before it from the case study.  LPV
    checks the level-2 real-time requirement, {!Face_app.deadline_ns}
    (25 frames/s).  [pool] fans the fault-detectability, ATPG and
    model-checking work out across domains; results are identical at
    any width (defaults to the sequential pool).  [seed] (default 1)
    drives the ATPG engines.

    [gov] puts the whole run under a resource governor: levels 1–3
    get fixed fractions of its remaining budget (level 4, where the
    SAT and PCC work lives, runs over the rest), each level splits its
    share across its checks before dispatch, and an exhausted share
    degrades that check to [Verdict.Inconclusive] carrying its partial
    result instead of running long.  With only logical allowances
    (conflicts/patterns) the degraded report is deterministic at any
    [pool] width; the wall-clock deadline is best-effort.  Omitting
    [gov] reproduces the ungoverned flow exactly.  The levels' governors
    are children of [gov], so a caller that owns a root (as
    `symbad report` does) reads the run's budget waterfall from it.

    [cache] hands level 4 a content-addressed verdict store
    ({!Level4.verify_module}): unchanged modules replay their stored
    rows ([cached: true] in the JSON) instead of re-running MC/PCC.
    Omitting it (the library default) never touches the filesystem.

    [escalate] forwards to {!Level4.run}: level-4 lint warnings that
    carry proof obligations are dispatched to the model checker and
    folded back into the gate before MC/PCC run. *)

val to_markdown : t -> string
(** The report as a markdown document (CI artefacts, experiment logs). *)

val to_json : ?timings:bool -> t -> string
(** The same report as a JSON document: workload, per-level figures and
    verification verdicts, overall outcome.  [~timings:false] zeroes
    host times and simulation speeds — the only run-dependent fields —
    so reports compare byte-identically across runs and [--jobs]
    widths. *)

val pp : Format.formatter -> t -> unit
