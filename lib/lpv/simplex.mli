(** Two-phase primal simplex over exact rationals, with Bland's rule
    (guaranteed termination) — the LP engine behind every LPV analysis. *)

type cmp = Le | Ge | Eq

type constr = {
  coeffs : (int * Rat.t) list;  (** (0-based variable index, coefficient) *)
  cmp : cmp;
  rhs : Rat.t;
}

type problem = {
  nvars : int;  (** variables are x_0..x_{nvars-1}, all >= 0 *)
  constraints : constr list;
  objective : (int * Rat.t) list;
  minimize : bool;
}

type outcome =
  | Optimal of { value : Rat.t; solution : Rat.t array }
  | Infeasible
  | Unbounded

val solve : problem -> outcome

val feasible : nvars:int -> constr list -> bool
(** Pure feasibility of a constraint system. *)
