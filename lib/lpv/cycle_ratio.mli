(** The maximum cycle ratio of a marked graph, by an exact integer
    search whose answer a separate pass over the net checks before it
    is returned.  The one engine behind LPV: [Timing.min_cycle_ratio]
    reads it at the net's delays, [Deadlock.check] at unit delays, where
    a cycle's ratio is its place count over its tokens. *)

type answer =
  | Ratio of Rat.t
      (** the largest delay/token ratio over the net's cycles, at least
          0 (0 when no cycle has positive delay, e.g. the net has no
          cycle) *)
  | Token_free of int list
      (** a cycle of positive delay that carries no token: its places
          in cycle order, from the lowest place index *)
  | Engine_error of string
      (** ["engine error: ..."]: the answer failed its certificate
          check, or the delays and tokens are too large for exact
          integers *)

val governed : Symbad_gov.Gov.t option -> string option
(** The reason ["governor: ..."] when the governor is exhausted: both
    readings poll it at entry, before any search. *)

val solve : delay:(int -> int) -> Petri.t -> answer
(** [delay t] is transition [t]'s firing delay.  The answer is the
    least [r >= 0] such that potentials [s] with
    [s(consumer) - s(producer) + r * tokens(p) >= delay(producer)]
    exist for every place [p] (the cycle-ratio LP of Dellacherie et
    al.), found by the search and certified by a pass that re-reads the
    net: the potentials satisfy every place at [r] and a cycle of ratio
    exactly [r] exists (or [r = 0]); a [Token_free] cycle is closed,
    carries no token and has positive delay.  A net whose [n * D * M]
    exceeds [max_int / 4] ([n] transitions; [D] and [M] the sums of
    |delay| and of tokens over the arcs, each at least 1) is an
    [Engine_error].  The net needs at least one transition. *)
