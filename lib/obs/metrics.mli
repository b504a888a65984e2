(** Metrics registry: named counters, gauges and log-scale histograms.

    Metrics are registered on first use; re-requesting a name returns
    the same instrument ([Invalid_argument] if the kinds disagree).
    Handles are plain records, so hot call sites can look one up once
    and update it without further registry traffic. *)

type t

val create : unit -> t

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** The counter of that name, registered on first use. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1). *)

val counter_value : counter -> int
(** Current total. *)

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge
(** The gauge of that name, registered on first use. *)

val set : ?x:float -> gauge -> float -> unit
(** Record a sample; [x] defaults to the sample index, so repeated [set]
    calls trace a curve (e.g. coverage over committed vectors). *)

val last : gauge -> float option
(** Most recent sample; [None] before the first [set]. *)

val samples : gauge -> (float * float) list
(** All [(x, value)] samples, oldest first. *)

(** {1 Histograms} *)

type histogram

val histogram : t -> string -> histogram
(** The histogram of that name, registered on first use. *)

val observe : histogram -> int -> unit
(** Record one observation. *)

(** {1 Lookup} *)

val find_counter : t -> string -> int option
(** Current total of a counter; [None] when never registered. *)

val find_gauge : t -> string -> float option
(** Latest sample of a gauge; [None] when never registered or empty. *)

val find_histogram : t -> string -> Histogram.t option
(** The histogram of that name; [None] when never registered. *)

val names : t -> string list
(** Every registered metric name, sorted. *)

val absorb : t -> t -> unit
(** [absorb t other] folds [other] into [t], registering its names in
    [other]'s registration order: counters add, histograms merge, gauge
    samples append in order.  [Invalid_argument] if a name has
    different kinds in the two registries. *)

(** {1 Export} *)

val to_jsonl : t -> string
(** One JSON object per line: counters and histograms one line each,
    gauges one line per sample. *)
