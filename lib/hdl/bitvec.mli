(** Fixed-width bit vectors (1..62 bits) with wraparound arithmetic —
    the value domain of the RTL IR. *)

type t

val max_width : int

val make : width:int -> int -> t
(** [make ~width v] truncates [v] to [width] bits. *)

val zero : width:int -> t
val one : width:int -> t
val ones : width:int -> t

val width : t -> int
val to_int : t -> int

val add : t -> t -> t
(** Equal widths required (also for the other binary operations). *)

val sub : t -> t -> t
val mul : t -> t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val neg : t -> t

val equal : t -> t -> bool
val ult : t -> t -> bool
(** Unsigned less-than. *)

val bit : t -> int -> bool
val slice : t -> hi:int -> lo:int -> t
(** Bits [hi..lo] inclusive, as a [(hi - lo + 1)]-bit vector. *)

val concat : t -> t -> t
(** [concat hi lo]. *)

val extend : t -> width:int -> t
(** Zero extension. *)
