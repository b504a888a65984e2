(** The fault-injection campaign engine.

    A campaign runs the level-3 face-recognition platform once
    fault-free (the baseline), then once per planned fault with the
    injection installed, and grades each trial on five questions:
    {e injected} (did the fault land), {e detected} (did a mechanism
    observe it), {e recovered} (did recovery complete), {e masked} (was
    the fault absorbed at zero recovery latency with the result still
    correct), {e correct} (does the run elect the baseline WINNER).
    Trial 0 is the uninjected control and must be byte-identical to the
    baseline.

    Campaigns run in one of two operating modes: {!Scrub} is the
    detect-and-repair platform (CRC-checked downloads, readback
    scrubbing, bounded retry); {!Tmr} is the masked-fault mode — TMR
    contexts voted at every readout plus SEC-DED bus ECC — which pays
    fabric area and bus bandwidth up front to drive recovery latency to
    zero.

    The plan is drawn from the seed before the fan-out and the
    governor's allowance is read once up front, so the report is
    byte-identical at any pool width.  Budget exhaustion skips trials
    and degrades the verdict to inconclusive; an undetected or
    uncorrected fault is a disproof — neither is ever a pass. *)

(** The campaign's operating mode: scrubbing-only recovery, or
    TMR + bus-ECC masking. *)
type mode = Scrub | Tmr

(** The grade of one trial. *)
type outcome = {
  trial : int;  (** position in the plan; 0 is the control *)
  kind : string;  (** ["control"] or a {!Fault.kind} name *)
  injection : string;  (** the planned fault, human-readable *)
  injected : bool;
  detected : bool;
  recovered : bool;
  masked : bool;
      (** absorbed by a masking mechanism (TMR vote, ECC correction) at
          zero recovery latency, with the result still correct *)
  correct : bool;  (** elects the baseline WINNER *)
  skipped : bool;  (** not run: budget exhausted *)
  recovery_ns : int;
      (** simulated service-completion latency paid over the baseline *)
  detail : string;  (** mechanism counters, one line *)
}

(** Per-fault-kind aggregate for the dependability table. *)
type kind_row = {
  row_kind : string;
  row_trials : int;
  row_injected : int;
  row_detected : int;
  row_recovered : int;
  row_masked : int;
  row_correct : int;
}

(** The dependability report.  Every field is an int, bool or string
    derived from simulated time — no wall clock — so the rendered forms
    are byte-stable. *)
type report = {
  seed : int;
  mode : string;  (** the operating mode, ["scrub"] or ["tmr"] *)
  trials_per_kind : int;
  kind_names : string list;
  baseline_latency_ns : int;
  fabric_area : int;
      (** resource areas the baseline run loaded, all TMR copies counted
          — the area price of the masked mode *)
  outcomes : outcome list;
  per_kind : kind_row list;
  control_ok : bool;  (** the uninjected control matched the baseline *)
  skipped : int;
  masked_trials : int;  (** executed trials graded {!outcome.masked} *)
  histogram : (string * int) list;
      (** log-2 buckets of {!outcome.recovery_ns} over executed trials *)
  passed : bool;  (** no skips and every trial passed *)
}

val run :
  ?pool:Symbad_par.Par.pool ->
  ?gov:Symbad_gov.Gov.t ->
  ?mode:mode ->
  ?kinds:Fault.kind list ->
  ?trials_per_kind:int ->
  ?workload:Symbad_core.Face_app.workload ->
  ?scrub_period_ns:int ->
  seed:int ->
  unit ->
  report
(** Run a campaign.  [mode] defaults to {!Scrub}; [kinds] defaults to
    {!Fault.all_kinds}, [trials_per_kind] to [3], [workload] to
    {!Symbad_core.Face_app.smoke_workload}, whose one case study gives
    every trial its graph and level-3 mapping.  [scrub_period_ns] (default
    [10_000]) is the readback-scrubbing period used for configuration
    upsets in {!Scrub} mode; in {!Tmr} mode upsets are caught by the
    voter at readout instead and scrubbing stays off.  [0] disables
    scrubbing, which makes scrub-mode upsets undetectable — the campaign
    then reports them as failures, never as passes.  Trials cost one
    governor pattern each; trials the budget cannot cover are
    skipped. *)

val first_failure : report -> outcome option
(** The first executed trial that did not pass, if any. *)

val verdict : report -> Symbad_core.Verdict.t
(** The ["fault campaign"] verdict: [Disproved] naming the first
    failing trial; else [Inconclusive] if any trial was skipped; else
    [Proved]. *)

val to_json : report -> Symbad_obs.Json.t
(** Byte-stable JSON rendering (the committed artefact format). *)

val to_markdown : report -> string
(** Byte-stable markdown rendering: the dependability table per fault
    kind plus the recovery-latency histogram. *)

val compare_modes : scrub:report -> tmr:report -> Symbad_obs.Json.t
(** Side-by-side masked-vs-scrub comparison: fault-survival, masked and
    zero-recovery-latency counts, fabric area, baseline latency and the
    recovery histograms of both modes (the [comparison] block of
    [test/golden/tmr.json]). *)

val compare_modes_markdown : scrub:report -> tmr:report -> string
(** {!compare_modes} rendered as markdown tables. *)
