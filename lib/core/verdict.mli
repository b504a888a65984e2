(** The one verification-result type of the flow.

    Every verification technology in the stack — model checking, PCC,
    ATPG, LPV, SymbC — historically reported through its own record;
    [Verdict.t] is the uniform contract they all adapt to, so the flow
    report, the CLI JSON surface and the parallel job engine handle one
    shape.  The adapters live here (and not in the producer libraries)
    because [symbad_core] is the one library that sees them all. *)

type outcome =
  | Proved  (** certificate obtained *)
  | Disproved of string  (** counterexample / witness summary *)
  | Coverage of { hit : int; total : int }  (** coverage-style result *)
  | Inconclusive of string  (** reason: resource-out, not analyzable… *)

type t = {
  name : string;  (** the check, e.g. ["PCC completeness ROOT"] *)
  outcome : outcome;
  passed : bool;  (** the pass/fail gate the flow aggregates *)
  host_seconds : float;  (** 0. when the producer did not time itself *)
  detail : string;  (** one human-readable line *)
  cached : bool;
      (** replayed from the content-addressed verdict cache rather than
          produced by running the engine *)
}

val make :
  ?passed:bool ->
  ?host_seconds:float ->
  ?detail:string ->
  name:string ->
  outcome ->
  t
(** [passed] defaults from the outcome: [Proved] passes,
    [Disproved]/[Inconclusive] fail, [Coverage] passes at full
    coverage — give [~passed] explicitly for thresholded gates.
    [cached] is [false] (see {!with_cached}). *)

val with_cached : t -> t
(** The verdict marked as a cache replay: [cached] set, [host_seconds]
    zeroed (no engine ran this time). *)

(** {1 Adapters} *)

val of_pcc : Symbad_pcc.Pcc.report -> t
(** [Coverage] over detectable faults; passes at [0.75], the flow's
    completeness gate.

    [Unresolved] faults (the resource budget ran out) are bounded, not
    guessed: over [detectable + unresolved] faults, the worst case
    counts each as uncovered and the best case as covered.  The row
    passes when the worst case meets the gate, fails only when the best
    case misses it — both as [Coverage] of [covered] over
    [detectable + unresolved] — and is otherwise [Inconclusive] with
    the number of faults classified.  Exhaustion never produces an
    optimistic pass nor a pessimistic failure. *)

val of_lpv_deadlock : ?host_seconds:float -> Symbad_lpv.Deadlock.verdict -> t
(** [Proved] with the minimum cycle tokens, [Disproved] with the witness
    cycle, or [Inconclusive] when the net was not analyzable (degraded
    governed run). *)

val of_lpv_timing :
  deadline_ns:int -> met:bool -> Symbad_lpv.Timing.verdict -> t
(** [met] is the caller's deadline comparison; the verdict's period (or
    unschedulability / non-analyzability) lands in the detail line. *)

val of_symbc : ?host_seconds:float -> Symbad_symbc.Check.verdict -> t
(** [Proved] with the number of certified call sites, or [Disproved]
    naming the failing reconfiguration call. *)

val of_lint : ?host_seconds:float -> Symbad_lint.Lint.report -> t
(** Any error ⇒ [Disproved] with the gravest diagnostic as the
    disproof; rules skipped by the governor (and no errors) ⇒
    [Inconclusive]; otherwise [Proved] over the rule set, warnings in
    the detail line. *)

(** {1 Rendering} *)

val outcome_label : outcome -> string
(** ["proved"], ["disproved"], ["coverage"] or ["inconclusive"]. *)

val to_json : ?timings:bool -> t -> Symbad_obs.Json.t
(** The uniform JSON shape ([check]/[passed]/[detail] plus [outcome],
    [host_seconds] and coverage counts).  [~timings:false] zeroes
    [host_seconds] for byte-stable comparison across runs.  [cached]
    is emitted only when true, so documents from uncached runs are
    unchanged from before the cache existed. *)

val of_json : Symbad_obs.Json.t -> t option
(** Parse a {!to_json} document back ([host_seconds] comes back as
    [0.]); [None] on missing or ill-typed fields, and on a row whose
    [passed] contradicts its outcome: a [Proved] row that did not pass,
    or a [Disproved] or [Inconclusive] row that did ([Coverage] may go
    either way).  This is how the content-addressed verdict cache
    replays stored rows; a rejected row makes the entry a miss. *)

val markdown_table : t list -> string
(** The rows as a markdown table: check, PASS/FAIL, detail. *)

val pp : Format.formatter -> t -> unit
