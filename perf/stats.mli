(** Order statistics for the benchmark's samples.

    Every function takes the samples unsorted and leaves the caller's
    array untouched. *)

val median : float array -> float
(** The middle sample, or the mean of the two middle samples.
    @raise Invalid_argument on an empty array. *)

val quartiles : float array -> float * float * float
(** [(q1, q2, q3)] by the exclusive method of Python's
    [statistics.quantiles (n=4)], the rule [spread.py] judges the
    run-to-run spread by.
    @raise Invalid_argument on fewer than two samples. *)

val percentile : float -> float array -> float
(** [percentile p xs]: the nearest-rank [p]-th percentile, [0 < p <= 100].
    @raise Invalid_argument on an empty array. *)

val tail : float array -> (float * float) option
(** [(p, value)] for the highest of the percentiles 50, 90, 99 and 99.9
    with at least ten samples beyond it; [None] when even the median has
    fewer than ten samples above it (fewer than 20 samples). *)
