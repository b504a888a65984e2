(** Bounded unrolling of a netlist into CNF (bit-blasting) — the engine
    room of BMC, k-induction and the SAT ATPG engine.

    Expressions elaborate to literal arrays, LSB first.  Frame 0
    registers are constrained to their reset values ({!Reset}) or left
    free ({!Free}, for the inductive step). *)

type t

type init_mode = Reset | Free

val create : ?init:init_mode -> Symbad_sat.Solver.t -> Netlist.t -> t
(** One frame (state 0) exists initially. *)

val unroll_to : t -> int -> unit
(** Ensure at least [n] frames (states 0..n-1) exist, adding transition
    constraints. *)

val expr_lits : t -> int -> Expr.t -> int array
(** Literals of an expression at frame [i] (width-checked). *)

val expr_lits_step : t -> int -> Expr.t -> int array
(** Like {!expr_lits}, but register names ending in ['] read from frame
    [i + 1] (two-state properties).  Both frames must exist. *)

val bool_lit : t -> int -> Expr.t -> int
(** Single literal of a width-1 expression at frame [i]. *)

val bool_lit_step : t -> int -> Expr.t -> int

val bits_value : Symbad_sat.Solver.t -> int array -> int
(** Read a literal array back from a satisfying model. *)

val input_value : Symbad_sat.Solver.t -> t -> int -> string -> int
val reg_value : Symbad_sat.Solver.t -> t -> int -> string -> int
