(** Simulation time.

    Time is measured in integer nanoseconds.  All Symbad models (untimed
    level-1 models, timed level-2/3 transaction-level models) share this
    clock; untimed models simply never advance it. *)

type t

val zero : t

val ns : int -> t
(** [ns n] is [n] nanoseconds. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val s : int -> t
(** [s n] is [n] seconds. *)

val of_cycles : period_ns:int -> int -> t
(** [of_cycles ~period_ns c] is the duration of [c] clock cycles of a
    clock with period [period_ns]. *)

val to_ns : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val compare : t -> t -> int
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
