(** The face DATABASE: the enrolled feature vectors. *)

type entry = { identity : int; features : int array }
type t

val create : dim:int -> entry list -> t
(** Raises if any entry's feature vector is not [dim] long. *)

val entries : t -> entry list
val size : t -> int
