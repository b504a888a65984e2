(** Cycle-accurate netlist simulation.

    {!create} compiles the netlist once: inputs and registers live in
    int slots, and every next-state function and output is a closure
    over them with its width masks worked out up front. *)

type state = (string * Bitvec.t) list
(** Register name to value. *)

type t

val create : Netlist.t -> t
(** Simulator in the reset state.  Raises [Invalid_argument], naming
    the register or output, on a malformed netlist. *)

val reset : t -> unit
val state : t -> state
val cycle : t -> int
(** Clock edges executed so far. *)

val outputs : t -> inputs:(string * Bitvec.t) list -> (string * Bitvec.t) list
(** Combinational outputs for the current state and the given inputs
    (every declared input must be bound; values are truncated to the
    declared width). *)

val output : t -> inputs:(string * Bitvec.t) list -> string -> Bitvec.t

val step : t -> inputs:(string * Bitvec.t) list -> unit
(** One clock edge: all registers update simultaneously. *)

(** {2 Raw slots}

    For loops that draw their own stimulus: inputs as ints in
    {!Netlist.inputs} order, and expressions compiled against the
    simulator's slots. *)

val set_inputs : t -> int array -> unit
(** Load one value per input, in {!Netlist.inputs} order (truncated to
    the declared widths). *)

val tick : t -> unit
(** One clock edge under the loaded inputs, which stay loaded. *)

val load_state : t -> int array -> unit
(** Overwrite the state: one value per register, in
    {!Netlist.registers} order (truncated to the declared widths).
    Raises [Invalid_argument] on an array of another length. *)

val read_state : t -> int array
(** A copy of the state, one value per register in {!Netlist.registers}
    order. *)

val compile : t -> Expr.t -> unit -> int
(** [compile t e] reads [e] over the loaded inputs and the current
    state.  Raises [Invalid_argument] on undeclared signals or
    inconsistent widths. *)

val compile_step : t -> Expr.t -> unit -> int
(** Like {!compile} for a two-state formula, read across the last
    {!tick} as {!Unroll.bool_lit_step} reads it: a primed register
    ([Reg "x'"]) reads the state after the edge; unprimed registers and
    inputs read the state and inputs the edge was taken from. *)
