(** LPV real-time analysis: deadline achievement and FIFO dimensioning
    via the maximum-cycle-ratio LP over timed marked graphs. *)

type verdict =
  | Period of Rat.t  (** minimum sustainable iteration period *)
  | Unschedulable of string  (** a zero-token cycle: no finite period *)
  | Not_analyzable of string
      (** resource budget exhausted (governor deadline or allowance)
          before the LP could run *)

val min_cycle_ratio : ?gov:Symbad_gov.Gov.t -> Petri.t -> verdict
(** One LP: minimise [r] subject to
    [s(consumer) - s(producer) + r * tokens(p) >= delay(producer)] for
    every place [p].  [gov] is polled at entry; exhaustion yields
    [Not_analyzable]. *)

val meets : deadline:int -> verdict -> bool
(** Does the period meet the deadline?  Only a [Period] at most
    [deadline] does: an unschedulable or degraded verdict answers
    [false] — conservative, never optimistic. *)

val deadline_met : ?gov:Symbad_gov.Gov.t -> deadline:int -> Petri.t -> bool
(** Can the system sustain one iteration every [deadline] time units?
    {!meets} of {!min_cycle_ratio}: one LP. *)

val min_uniform_capacity :
  ?gov:Symbad_gov.Gov.t ->
  deadline:int ->
  build:(int -> Petri.t) ->
  unit ->
  int option
(** Smallest uniform channel capacity from 1 to 64 meeting the
    deadline, over a monotone family of nets built by [build]; [None]
    when even 64 misses it.  [gov] is polled before each candidate
    capacity (one LP each); exhaustion stops the search with [None]. *)

val pp_verdict : Format.formatter -> verdict -> unit
