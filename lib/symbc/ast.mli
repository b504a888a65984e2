(** Mini-C abstract syntax for the instrumented application software.

    Data is abstracted away: conditions are nondeterministic and the
    relevant actions are function calls and reconfiguration calls. *)

type stmt =
  | Call of string  (** invoke a function (HW resource or plain SW) *)
  | Reconfig of string  (** load the named FPGA configuration *)
  | If of stmt list * stmt list  (** nondeterministic branch *)
  | While of stmt list  (** nondeterministic loop *)

type program = stmt list

val call : string -> stmt
val reconfig : string -> stmt
val if_ : stmt list -> stmt list -> stmt
val while_ : stmt list -> stmt

val pp : Format.formatter -> program -> unit

val called_functions : program -> string list
(** Sorted, deduplicated. *)

val loaded_configs : program -> string list
