(** Architecture exploration: grade candidate configurations by
    performance, silicon usage and power, and compare the paper's
    "static" implementation against the reconfigurable one. *)

type grade = {
  mapping : Mapping.t;
  label : string;
  latency_ns : int;
  bus_busy_ns : int;
  bus_utilisation : float;
  bitstream_bytes : int;
  area : int;  (** silicon cost of the HW modules + FPGA fabric *)
  energy_proxy : float;
}

val grade :
  ?config:Level3.config -> label:string -> Task_graph.t -> Mapping.t -> grade
(** Simulate the mapping on the level-3 platform [config] (default
    [Level3.default_config]; a mapping with no FPGA contexts is a
    level-2 candidate) and grade it.  The area is that of the same
    platform: [config.task_area] sizes each module. *)

val sweep_hw_sets :
  ?pool:Symbad_par.Par.pool ->
  profile:Symbad_tlm.Annotation.Profile.t ->
  pinned_sw:string list ->
  ?max_hw:int ->
  Task_graph.t ->
  grade list
(** Map the [n] heaviest tasks to HW for [n] in [0, max_hw] and grade
    each on [Level3.default_config].
    Candidates are graded in parallel on [pool] (results are in [n]
    order at any width); progress is reported through
    ["explore.progress"] observability events. *)

val pareto : grade list -> grade list
(** Points not dominated on (latency, area, energy). *)

val pp_grade : Format.formatter -> grade -> unit
