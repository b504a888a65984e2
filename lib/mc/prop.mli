(** Safety properties over a netlist.

    An invariant property is a width-1 expression over inputs and
    registers that must hold in every reachable state, for every input.
    A step (two-state) property additionally reads primed registers
    ([Reg "x'"]), which denote the next-state value — the transition
    relation view used for update-correctness properties. *)

module Expr := Symbad_hdl.Expr
module Netlist := Symbad_hdl.Netlist

type t

val make : name:string -> Expr.t -> t
(** An invariant property (primed registers rejected by {!validate}). *)

val make_step : name:string -> Expr.t -> t
(** A transition property; register names ending in ['] refer to the
    next state. *)

val name : t -> string
val formula : t -> Expr.t
val is_step : t -> bool

val next : Expr.t -> Expr.t
(** Rewrite every register reference to its primed version, so step
    properties read [implies guard (eq (next e) rhs)]. *)

val output : Netlist.t -> string -> Expr.t
(** Inline a named combinational output for use inside a property. *)

val implies : Expr.t -> Expr.t -> Expr.t

val validate : Netlist.t -> t -> t
(** Check the formula is width-1 over the netlist's signals; raises
    [Invalid_argument] otherwise. *)
