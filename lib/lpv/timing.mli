(** LPV real-time analysis: deadline achievement and FIFO dimensioning
    via the maximum cycle ratio of timed marked graphs, found by the
    certified cycle search that {!Deadlock.check} also reads (there at
    unit delays). *)

type verdict =
  | Period of Rat.t  (** minimum sustainable iteration period *)
  | Unschedulable of string
      (** a zero-token cycle of positive delay: no finite period; the
          reason names the cycle's places in cycle order *)
  | Not_analyzable of string
      (** resource budget exhausted (governor deadline or allowance)
          before the search could run; or ["engine error: ..."], when
          the answer failed its certificate check or the delays and
          tokens are too large for exact integers *)

val min_cycle_ratio : ?gov:Symbad_gov.Gov.t -> Petri.t -> verdict
(** The least [r >= 0] such that potentials [s] with
    [s(consumer) - s(producer) + r * tokens(p) >= delay(producer)] exist
    for every place [p] (the cycle-ratio LP of Dellacherie et al.),
    found by an exact integer search over cycle ratios and checked,
    before it is returned, by a pass over the net that does not use the
    search: the potentials satisfy every place at [r] and a cycle of
    ratio exactly [r] exists (or [r = 0]); an [Unschedulable] cycle
    carries no token and positive delay.  A net whose
    [n * D * M] exceeds [max_int / 4] ([n] transitions; [D] and [M] the
    sums of |delay| and of tokens over the arcs, each at least 1) is
    [Not_analyzable].
    [gov] is polled at entry; exhaustion yields [Not_analyzable]. *)

val meets : deadline:int -> verdict -> bool
(** Does the period meet the deadline?  Only a [Period] at most
    [deadline] does: an unschedulable or degraded verdict answers
    [false] — conservative, never optimistic. *)

val deadline_met : ?gov:Symbad_gov.Gov.t -> deadline:int -> Petri.t -> bool
(** Can the system sustain one iteration every [deadline] time units?
    {!meets} of {!min_cycle_ratio}. *)

val min_uniform_capacity :
  ?gov:Symbad_gov.Gov.t ->
  deadline:int ->
  build:(int -> Petri.t) ->
  unit ->
  int option
(** Smallest uniform channel capacity from 1 to 64 meeting the
    deadline, over a monotone family of nets built by [build]; [None]
    when even 64 misses it.  Each candidate is one {!min_cycle_ratio}
    read by {!meets}, so a candidate whose search is [Not_analyzable]
    counts as a miss.  [gov] is polled before each candidate capacity;
    exhaustion stops the search with [None]. *)

val pp_verdict : Format.formatter -> verdict -> unit
