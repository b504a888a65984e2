(** Petri-net abstraction of a communication structure.

    Tasks are transitions; channels are places (plus credit places for
    bounded channels).  Dataflow designs yield marked graphs, on which
    LPV's one analysis is exact: the certified cycle-ratio search that
    {!Timing} reads at the net's delays and {!Deadlock} at unit
    delays. *)

type t

val create : unit -> t

val add_place : t -> ?tokens:int -> string -> int
(** Returns the place index. *)

val add_transition : t -> ?delay:int -> unit -> int
(** Returns the transition index. *)

val add_pre : t -> transition:int -> place:int -> unit
(** [place] is consumed by [transition] (arc weight 1). *)

val add_post : t -> transition:int -> place:int -> unit
(** [place] is produced by [transition] (arc weight 1). *)

val n_places : t -> int
val n_transitions : t -> int
val place_name : t -> int -> string
val initial_marking : t -> int array
val delay : t -> int -> int

val producers : t -> int -> int list
val consumers : t -> int -> int list
