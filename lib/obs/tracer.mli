(** Nestable timed spans and instant markers, exported as Chrome
    trace_event JSON (loadable in chrome://tracing or Perfetto).

    Spans carry host time always, and simulated time when the caller
    passes [sim_ns].  Spans are grouped on named {e tracks} (Chrome
    threads): the default track serialises the flow itself, while
    concurrent simulation processes (e.g. bus masters) should each use
    their own track so their interleaved spans still nest.

    Every span has a timeline-unique id and a causal parent: the
    innermost span still open on the timeline when it began, whatever
    its track.  One timeline belongs to one domain, so that is the
    innermost span open on the recording domain.  [Par] gives each job
    a timeline of its own and folds it back with {!absorb}; the Chrome
    export draws the dispatch → job links as flow arrows. *)

type t

type span

type completed = {
  id : int;  (** timeline-unique span id (also exported in the args) *)
  parent : int option;  (** causal parent span id, if any *)
  name : string;
  cat : string;
  track : string;
  depth : int;  (** nesting depth within the track at begin time *)
  start_us : float;
  dur_us : float;
  sim_start_ns : int option;
  sim_dur_ns : int option;
  args : (string * Json.t) list;
}

val create : unit -> t
(** An empty timeline. *)

val begin_span :
  t ->
  ?track:string ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  ?sim_ns:int ->
  string ->
  span
(** Open a span on [track] (default ["flow"]) at the current
    host time; [cat] is the Chrome category, [sim_ns] the simulated
    start time.  Its parent is the innermost span still open on the
    timeline. *)

val end_span : t -> ?args:(string * Json.t) list -> ?sim_ns:int -> span -> unit
(** Close the span; [sim_ns] here yields a simulated duration in the
    exported args.  Spans may close out of order (interleaved
    simulation processes do): a span stays a parent until it closes. *)

val with_span :
  t ->
  ?track:string ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  ?sim_ns:int ->
  string ->
  (unit -> 'a) ->
  'a
(** Scoped span; closes on normal return and on exception. *)

val instant :
  t ->
  ?severity:Severity.t ->
  ?args:(string * Json.t) list ->
  ?sim_ns:int ->
  string ->
  unit
(** A zero-duration marker on the ["flow"] track. *)

val absorb : t -> parent:span -> lane:int -> t -> unit
(** [absorb t ~parent ~lane job] appends the spans and instants of the
    timeline [job] to [t].  Job span ids are offset past every id [t]
    has handed out, so absorbing job timelines in a fixed order gives
    the same ids whatever order the jobs ran in.
    The job's top-level spans are parented to [parent] and moved to
    track ["lane<lane>"]; its other spans keep their track under a
    ["lane<lane>/"] prefix, and its instants land on ["lane<lane>"]. *)

val span_count : t -> int
(** Number of completed spans. *)

val completed_spans : t -> completed list
(** Completed spans, oldest first. *)

val spans_with_cat : t -> string -> completed list
(** Completed spans whose category equals the argument, oldest first. *)

val to_chrome_json : t -> string
(** The whole timeline as a Chrome trace_event JSON document.  A link
    between two ["par"] spans (dispatch → job, job → nested dispatch)
    is also drawn as a flow arrow. *)
