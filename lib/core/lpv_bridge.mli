(** Bridge from the system model to the LPV abstraction: "the SystemC
    model is translated in an abstract model where communication and
    synchronization characteristics remain un-abstracted". *)

type timing_model = {
  annotation : Symbad_tlm.Annotation.t;
  cpu_period_ns : int;
  hw_period_ns : int;
  fpga_period_ns : int;
}

val default_timing : timing_model

val net_of :
  ?capacity:int ->
  ?extra_channels:(string * string * string * int) list ->
  ?timing:timing_model ->
  ?mapping:Mapping.t ->
  ?profile:Symbad_tlm.Annotation.Profile.t ->
  Task_graph.t ->
  Symbad_lpv.Petri.t
(** Tasks become transitions (delay 1 unless all of [timing], [mapping]
    and [profile] are given), channels forward places plus credit places
    of [capacity] (default 2; 0 = unbounded), and each task a marked
    self-loop.
    [extra_channels] adds [(name, src, dst, tokens)] feedback edges —
    synchronisation added at mapping time, or seeded deadlock bugs. *)

val check_deadlock :
  ?extra_channels:(string * string * string * int) list ->
  ?gov:Symbad_gov.Gov.t ->
  Task_graph.t ->
  Symbad_lpv.Deadlock.verdict
(** The level-1 deadlock-freeness check over {!net_of}'s default
    capacity; an exhausted [gov] yields [Not_analyzable]. *)

val check_deadline :
  deadline_ns:int ->
  timing:timing_model ->
  mapping:Mapping.t ->
  profile:Symbad_tlm.Annotation.Profile.t ->
  ?gov:Symbad_gov.Gov.t ->
  Task_graph.t ->
  Symbad_lpv.Timing.verdict * bool
(** The minimum period and whether it meets the deadline
    ({!Symbad_lpv.Timing.meets}), from one LP over {!net_of}'s default
    capacity; an exhausted [gov] yields [(Not_analyzable _, false)]. *)

val dimension_fifos :
  deadline_ns:int ->
  timing:timing_model ->
  mapping:Mapping.t ->
  profile:Symbad_tlm.Annotation.Profile.t ->
  ?gov:Symbad_gov.Gov.t ->
  Task_graph.t ->
  int option
(** Smallest uniform channel capacity, up to 64, meeting the deadline.  [gov] is
    polled per candidate capacity; exhaustion stops the search with
    [None]. *)
