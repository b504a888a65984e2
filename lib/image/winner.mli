(** WINNER: select the closest database entry. *)

type verdict = Match of { identity : int; distance : int }

val select : (int * int) list -> verdict
(** [select candidates] over [(identity, distance)] pairs; raises on an
    empty list.  Ties keep the earliest candidate. *)

val pp : Format.formatter -> verdict -> unit
val work : candidates:int -> int
