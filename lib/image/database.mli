(** The face DATABASE: enrolled feature vectors with (de)serialisation
    so the bus-attached nonvolatile memory model can hold them. *)

type entry = { identity : int; features : int array }
type t

val create : dim:int -> entry list -> t
(** Raises if any entry's feature vector is not [dim] long. *)

val entries : t -> entry list
val size : t -> int

val serialize : t -> Bytes.t
(** 16-bit little-endian encoding: header (dim, count), then per entry
    the identity and [dim] components. *)

val deserialize : Bytes.t -> t
(** Inverse of {!serialize}; raises on truncated input. *)

val equal : t -> t -> bool
