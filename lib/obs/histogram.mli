(** Log-scale (power-of-two bucket) histogram over non-negative ints.

    Bucket 0 holds the value 0; bucket [i >= 1] the range
    [[2^(i-1), 2^i - 1]].  Negative observations clamp to 0; [max_int]
    lands in the last bucket. *)

type t

val create : unit -> t
(** An empty histogram. *)

val observe : t -> int -> unit
(** Record one observation (clamped to non-negative). *)

val count : t -> int
(** Number of observations recorded. *)

val sum : t -> float
(** Sum of all observed values. *)

val min_value : t -> int
(** Smallest observation; 0 when empty. *)

val max_value : t -> int
(** Largest observation; 0 when empty. *)

val mean : t -> float
(** [sum / count]; 0 when empty. *)

val bucket_index : int -> int
(** The bucket an observation of this value lands in. *)

val bucket_bounds : int -> int * int
(** [bucket_bounds i] is the inclusive value range of bucket [i]. *)

val nonempty_buckets : t -> (int * int * int) list
(** [(lo, hi, count)] per populated bucket, ascending. *)

val absorb : t -> t -> unit
(** [absorb h other] adds every observation of [other] to [h], as if
    they had been observed on [h]. *)

val reset : t -> unit
(** Drop every observation. *)
