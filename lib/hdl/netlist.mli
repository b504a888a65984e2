(** Synchronous netlists — the RTL carrier of level 4.

    A netlist has inputs, registers (reset value + next-state
    expression) and named combinational outputs.  The model checker, the
    property-coverage checker and the fault injector all operate on this
    representation. *)

type register = {
  name : string;
  width : int;
  init : Bitvec.t;  (** reset value *)
  next : Expr.t;  (** next-state function *)
}

type t

val make :
  name:string ->
  inputs:(string * int) list ->
  registers:register list ->
  outputs:(string * Expr.t) list ->
  t
(** Elaborates and validates: unique names, consistent widths everywhere.
    Raises [Invalid_argument] on violations; the message names the
    register or output whose expression failed. *)

val make_unchecked :
  name:string ->
  inputs:(string * int) list ->
  registers:register list ->
  outputs:(string * Expr.t) list ->
  t
(** Builds the netlist with {e no} elaboration.  Defective netlists
    must be representable so [Symbad_lint] can diagnose them; everything
    else should use {!make}. *)

val name : t -> string
val inputs : t -> (string * int) list
val registers : t -> register list
val outputs : t -> (string * Expr.t) list

val input_width : string -> t -> int option
val reg_width : string -> t -> int option

val expr_width : t -> Expr.t -> int
(** Width of an expression in this netlist's context.  Raises
    [Invalid_argument] on undeclared names or width inconsistencies
    (see {!Expr.infer_width}). *)

val find_register : t -> string -> register option
val find_output : t -> string -> Expr.t option

val area : t -> int
(** Gate-count proxy used as the FPGA-mapping area estimate. *)
