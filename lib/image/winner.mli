(** WINNER: select the closest database entry, with rejection. *)

type verdict =
  | Match of { identity : int; distance : int }
  | Unknown of { best_identity : int; distance : int }
      (** best candidate rejected by the threshold *)

val select : ?reject_above:int -> (int * int) list -> verdict
(** [select candidates] over [(identity, distance)] pairs; raises on an
    empty list.  Ties keep the earliest candidate. *)

val pp : Format.formatter -> verdict -> unit
val work : candidates:int -> int
