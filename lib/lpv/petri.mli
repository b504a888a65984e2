(** Petri-net abstraction of a communication structure.

    Tasks are transitions; channels are places (plus credit places for
    bounded channels).  Dataflow designs yield marked graphs, on which
    the LPV analyses are exact. *)

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

val incidence : t -> int array array
(** [C.(t).(p) = post - pre]. *)

val producers : t -> int -> int list
val consumers : t -> int -> int list

val state_equation_feasible : t -> int array -> bool
(** State-equation relaxation: [false] is a *proof* that the marking is
    unreachable — LPV's mechanism for discharging unreachability
    properties. *)

val structurally_bounded : t -> bool
(** [true] iff a place weighting [y >= 1] with [y C <= 0] exists, which
    bounds the token count under every initial marking (conservative
    nets qualify); [false] means some transition sequence can grow some
    place without bound. *)
