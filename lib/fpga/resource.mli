(** FPGA computing resources: HW algorithm modules. *)

type t

val algorithm : area:int -> string -> t
(** A HW module implementing an algorithm; [area] in abstract logic units. *)

val name : t -> string
val area : t -> int
