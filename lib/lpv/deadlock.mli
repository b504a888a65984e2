(** LPV deadlock-freeness for marked graphs.

    Minimising the initial token count over the nonnegative
    place-invariant cone decides whether every directed cycle carries a
    token; a zero-token optimum's support is an unfireable cycle — a
    deadlock witness. *)

type verdict =
  | Deadlock_free of { min_cycle_tokens : Rat.t }
  | Potential_deadlock of { witness : string list }
      (** places of the token-free cycle *)
  | Not_analyzable of string
      (** degenerate net, numerically unbounded LP, or resource budget
          exhausted (governor deadline or allowance) *)

val check : ?gov:Symbad_gov.Gov.t -> Petri.t -> verdict
(** Decide deadlock-freeness by one LP over the invariant cone.  [gov]
    is polled at entry; exhaustion yields [Not_analyzable]. *)

val pp_verdict : Format.formatter -> verdict -> unit
