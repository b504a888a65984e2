(** Process-wide telemetry: one tracer and one metrics registry behind a
    single enable flag.

    Everything is a no-op while disabled; instrumentation sites on hot
    paths should still guard with [if Obs.enabled () then ...] so that
    argument lists are not even allocated.

    A {!Tracer.t} plus a {!Metrics.t} is the one recorder.  The {e owner}
    domain (the one that last called [set_enabled true]) records into the
    global pair; a [Par] job records into a fresh pair of its own
    ({!with_recorder}), which the dispatcher folds back at the fan-in
    with {!Tracer.absorb} and {!Metrics.absorb} in job order, so merged
    metrics are byte-identical at any pool width.  Emissions from a
    domain with neither role are dropped and counted
    ({!dropped_count}). *)

val enabled : unit -> bool
(** True on the owner domain and inside a {!with_recorder} thunk while
    telemetry is on; false (and emissions are dropped-and-counted)
    elsewhere. *)

val set_enabled : bool -> unit
(** [set_enabled true] also makes the calling domain the owner of the
    global recorder — the tracer and registry are single-domain state. *)

val tracer : unit -> Tracer.t
(** The process-wide span timeline (owner domain only). *)

val metrics : unit -> Metrics.t
(** The process-wide metrics registry (owner domain only). *)

val reset : unit -> unit
(** Fresh tracer, fresh registry, dropped count zeroed.  Does not
    change the enabled flag. *)

val dropped_count : unit -> int
(** Emissions dropped since the last {!reset} because they came from a
    domain that is neither the owner nor inside a {!with_recorder}
    thunk.  Nonzero means counters/spans under-report parallel work —
    the CLI warns on it. *)

(** {1 Recorders} *)

val recorder : unit -> (Tracer.t * Metrics.t) option
(** The pair the calling domain records into: the one installed by
    {!with_recorder}, else the global pair on the owner domain; [None]
    while telemetry is off or on any other domain. *)

val with_recorder : Tracer.t -> Metrics.t -> (unit -> 'a) -> 'a
(** Run a thunk with every telemetry emission of the calling domain
    recorded into the given pair (restoring the previous one on exit).
    [Par] wraps each job in this. *)

(** {1 Events} *)

val event :
  ?severity:Severity.t ->
  ?args:(string * Json.t) list ->
  ?sim_ns:int ->
  string ->
  unit
(** Record an event of severity [Info] (the default) or graver as an
    instant on the trace timeline; [Debug] events are not recorded. *)

(** {1 Spans} *)

type span

val null_span : span
(** What a site that guards [begin_span] behind [enabled] uses as the
    disabled arm; [end_span] on it is a no-op. *)

val begin_span :
  ?track:string ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  ?sim_ns:int ->
  string ->
  span
(** Open a span on the timeline ({!null_span} while disabled). *)

val end_span : ?args:(string * Json.t) list -> ?sim_ns:int -> span -> unit
(** Close a span opened by {!begin_span}; extra [args] are merged in. *)

val span :
  ?track:string ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  string ->
  (unit -> 'a) ->
  'a
(** Scoped span around a computation, host time only (see
    {!begin_span} for simulated time); transparent while disabled. *)

(** {1 Metric shorthands} *)

val incr_counter : ?by:int -> string -> unit
(** [Metrics.incr] on the named counter of the calling domain's
    {!recorder}. *)

val set_gauge : ?x:float -> string -> float -> unit
(** [Metrics.set] on the named gauge of the calling domain's
    {!recorder}. *)

val observe : string -> int -> unit
(** [Metrics.observe] on the named histogram of the calling domain's
    {!recorder}. *)
