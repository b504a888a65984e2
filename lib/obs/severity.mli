(** Event severities, ordered [Debug < Info < Warn < Error]. *)

type t = Debug | Info | Warn | Error

val to_string : t -> string
(** Lowercase name, e.g. ["warn"]. *)

val compare : t -> t -> int
(** Severity order: [Debug < Info < Warn < Error]. *)
