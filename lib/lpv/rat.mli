(** Exact rational arithmetic over native ints.

    Values are always normalised (coprime, positive denominator).  Ample
    for the case study's cycle ratios; normalisation keeps numbers
    small. *)

type t

val make : int -> int -> t
(** [make num den]; raises on a zero denominator. *)

val of_int : int -> t
val zero : t
val one : t
val minus_one : t

val num : t -> int
val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Raises [Invalid_argument] on division by zero. *)

val neg : t -> t
val inv : t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool

val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val to_float : t -> float
val pp : Format.formatter -> t -> unit
