(** Level 2: timed transaction-level simulation of the mapped
    architecture.

    SW tasks collapse into one CPU process running a cyclostatic
    schedule; HW tasks are autonomous processes; channels with a HW
    endpoint ride the shared bus.  Timing comes from the annotation
    model applied to each firing's work units. *)

type config = {
  annotation : Symbad_tlm.Annotation.t;
  bus_width_bytes : int;
  bus_period_ns : int;
  cpu_period_ns : int;
  hw_period_ns : int;
  fifo_capacity : int;  (** bounded channels; sinks stay unbounded *)
}

val default_config : config
(** 32-bit 100 MHz bus, 50 MHz CPU, 100 MHz HW logic, capacity 2. *)

type result = {
  trace : Symbad_sim.Trace.t;
  kernel_stats : Symbad_sim.Kernel.stats;
  bus_report : Symbad_tlm.Bus.report;
  cpu_stats : Symbad_tlm.Cpu.stats;
  latency_ns : int;
  channel_occupancy : (string * Symbad_sim.Fifo.occupancy) list;
}

val simulation_speed_khz : bus_period_ns:int -> result -> float
(** Simulated bus-clock kHz achieved per host CPU second — the figure
    the paper reports as "simulation speed close to 200 kHz". *)

val crosses_bus : Mapping.t -> Task_graph.t -> string -> bool
(** Does the channel leave the CPU (and hence ride the bus)? *)

val run : ?config:config -> Task_graph.t -> Mapping.t -> result
(** Raises [Invalid_argument] if a source is not mapped to SW or any
    task is mapped to an FPGA context (that is level 3). *)
