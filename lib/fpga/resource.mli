(** FPGA computing resources: HW algorithm modules and register files. *)

type kind = Algorithm | Register_file
type t

val algorithm : area:int -> string -> t
(** A HW module implementing an algorithm; [area] in abstract logic units. *)

val name : t -> string
val area : t -> int
val kind : t -> kind
val pp : Format.formatter -> t -> unit
