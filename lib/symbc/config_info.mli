(** The "configuration information" input of SymbC: which functions live
    in the FPGA and which configuration provides which function.
    Unlisted functions are plain software, always available. *)

type t

val make :
  fpga_functions:string list ->
  configurations:(string * string list) list ->
  t
(** Raises if a configuration lists a function not in
    [fpga_functions].  The reconfiguration procedure is [load]. *)

val is_fpga_function : t -> string -> bool

val has_configuration : t -> string -> bool
val provides : t -> config:string -> string -> bool
val configuration_names : t -> string list
