(** Bridge from the system model to the LPV abstraction: "the SystemC
    model is translated in an abstract model where communication and
    synchronization characteristics remain un-abstracted". *)

val default_timing : Level3.config
(** [Level3.default_config], the platform the case study simulates. *)

val net_of :
  ?extra_channels:(string * string * string * int) list ->
  ?timing:Level3.config ->
  ?mapping:Mapping.t ->
  ?profile:Symbad_tlm.Annotation.Profile.t ->
  Task_graph.t ->
  Symbad_lpv.Petri.t
(** Tasks become transitions, channels forward places plus credit
    places of the simulated FIFO capacity ([timing.level2.fifo_capacity];
    0 = unbounded), and each task a marked self-loop.  [timing] is the
    platform config the simulation runs (default {!default_timing}).  A
    transition's delay is 1 unless both [mapping] and [profile] are
    given; then it is the annotated cycles of one firing on the task's
    mapped resource times that resource's clock period, both read from
    [timing].
    [extra_channels] adds [(name, src, dst, tokens)] feedback edges —
    synchronisation added at mapping time, or seeded deadlock bugs. *)

val check_deadlock :
  ?extra_channels:(string * string * string * int) list ->
  ?gov:Symbad_gov.Gov.t ->
  Task_graph.t ->
  Symbad_lpv.Deadlock.verdict
(** The level-1 deadlock-freeness check over the untimed net of
    {!default_timing}'s FIFO capacity; an exhausted [gov] yields
    [Not_analyzable]. *)

val check_deadline :
  deadline_ns:int ->
  timing:Level3.config ->
  mapping:Mapping.t ->
  profile:Symbad_tlm.Annotation.Profile.t ->
  ?gov:Symbad_gov.Gov.t ->
  Task_graph.t ->
  Symbad_lpv.Timing.verdict * bool
(** The minimum period and whether it meets the deadline
    ({!Symbad_lpv.Timing.meets}), from one
    {!Symbad_lpv.Timing.min_cycle_ratio} over the net of [timing], its
    FIFO capacity included; an exhausted [gov] yields
    [(Not_analyzable _, false)]. *)

val dimension_fifos :
  deadline_ns:int ->
  timing:Level3.config ->
  mapping:Mapping.t ->
  profile:Symbad_tlm.Annotation.Profile.t ->
  ?gov:Symbad_gov.Gov.t ->
  Task_graph.t ->
  int option
(** Smallest uniform channel capacity, up to 64, meeting the deadline:
    each candidate [c] is timed on [timing] with [fifo_capacity = c].
    [gov] is polled per candidate capacity; exhaustion stops the search
    with [None]. *)
