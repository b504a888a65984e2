(** The SymbC consistency check.

    Fundamental property: "each time the software requires a hardware
    resource of the reconfigurable part, this resource is actually
    available".  Exhaustive reachability on the product of the CFG with
    the finite FPGA state yields a per-program-point certificate or a
    shortest counterexample path. *)

type fpga_state = Unloaded | Loaded of string

val fpga_state_to_string : fpga_state -> string

type step = { action : Cfg.action; state_after : fpga_state }

type counterexample = {
  failing_call : string;
  state_at_call : fpga_state;
  path : step list;  (** actions from entry to the failing call *)
}

type certificate = {
  invariants : (int * fpga_state list) list;
      (** program point -> possible FPGA states *)
  calls_checked : int;
}

type verdict = Consistent of certificate | Inconsistent of counterexample

val call_ok : Config_info.t -> fpga_state -> string -> bool
(** Is one call safe in one FPGA state? *)

val check : Config_info.t -> Ast.program -> verdict
(** Raises [Invalid_argument] if the program loads an unknown
    configuration. *)

val pp_verdict : Format.formatter -> verdict -> unit
