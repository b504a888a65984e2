(** LPV deadlock-freeness for marked graphs.

    A marked graph is deadlock-free iff every directed cycle carries a
    token.  The certified cycle search behind {!Timing.min_cycle_ratio},
    run with every delay taken as 1, decides it: a token-free cycle is a
    deadlock witness, and otherwise the maximum cycle ratio r (places
    over tokens) gives the least tokens per place of a cycle, 1/r — the
    optimum of the paper's place-invariant LP. *)

type verdict =
  | Deadlock_free of { min_cycle_tokens : Rat.t }
      (** the least tokens/places over the cycles; [Rat.of_int max_int]
          for a net with no cycle *)
  | Potential_deadlock of { witness : string list }
      (** places of the token-free cycle, in place-index order *)
  | Not_analyzable of string
      (** empty net; resource budget exhausted (governor deadline or
          allowance); or ["engine error: ..."], when the answer failed
          its certificate check *)

val check : ?gov:Symbad_gov.Gov.t -> Petri.t -> verdict
(** Decide deadlock-freeness by one certified cycle search at unit
    delays.  [gov] is polled at entry; exhaustion yields
    [Not_analyzable]. *)

val pp_verdict : Format.formatter -> verdict -> unit
