(** Level 3: the reconfigurable platform.

    FPGA-resident functions are invoked synchronously from the software:
    the CPU issues a reconfiguration (a bitstream download over the bus,
    modelled as real burst traffic, plus programming time) whenever the
    next call needs a context that is not loaded.  The run records the
    dynamic resource-call sequence and emits the instrumented mini-C
    program that SymbC consumes.

    Underneath is the level-2 platform, which {!Level2.run} simulates
    alone by running this one on a mapping with no FPGA contexts: SW
    tasks collapse into one CPU process running a cyclostatic schedule;
    HW tasks are autonomous processes; channels with a HW endpoint ride
    the shared bus.  Timing comes from the annotation model applied to
    each firing's work units. *)

(** The CPU + AMBA platform of level 2. *)
type platform = {
  annotation : Symbad_tlm.Annotation.t;
  bus_width_bytes : int;
  bus_period_ns : int;
  cpu_period_ns : int;
  hw_period_ns : int;
  fifo_capacity : int;  (** bounded channels; sinks stay unbounded *)
}

type config = {
  level2 : platform;
  fpga_capacity : int;
  fpga_period_ns : int;
  program_ns_per_byte : int;
  fpga_burst_bytes : int;
      (** download granularity: 8 models CPU programmed I/O, larger
          values a DMA engine *)
  task_area : string -> int;
      (** area of each task's module: sizes its FPGA resource, and
          [Explore.grade] charges it for hardwired and FPGA modules *)
  scrub_period_ns : int;
      (** period of the readback-scrubbing process that detects and
          repairs configuration-memory upsets; 0 (the default) disables
          it — scrubbing is real bus traffic *)
  watchdog_ns : int;
      (** how long the reconfiguration controller waits for a wedged
          resource before marking the fabric unhealthy *)
  masked : bool;
      (** masked-fault operating mode (default [false]): contexts run
          as TMR in a 3x fabric ([Symbad_fpga.Fpga] with [copies = 3])
          with a majority vote at every result readout — a single upset
          copy never corrupts a result and is repaired latency-free in
          the shadow of continued operation — and the bus is SEC-DED
          protected ([Symbad_tlm.Bus] with [ecc]).  The price, paid by
          every run in this mode: triple reconfiguration traffic and
          programming time, triple resource area, and every bus
          transfer widened by 39/32. *)
}

val default_config : config
(** The level-2 platform is a 32-bit 100 MHz bus, a 50 MHz CPU,
    100 MHz HW logic and FIFO capacity 2. *)

type result = {
  trace : Symbad_sim.Trace.t;
  kernel_stats : Symbad_sim.Kernel.stats;
  bus_report : Symbad_tlm.Bus.report;
  cpu_stats : Symbad_tlm.Cpu.stats;
  fpga_stats : Symbad_fpga.Fpga.stats;
  latency_ns : int;
  bus_period_ns : int;  (** the bus clock period the run simulated *)
  call_sequence : string list;  (** dynamic FPGA-resource invocations *)
  sw_fallbacks : int;
      (** FPGA firings degraded to the software implementation because
          the fabric was (or became) unhealthy *)
  channel_occupancy : (string * Symbad_sim.Fifo.occupancy) list;
      (** per-channel FIFO statistics, drop counts included *)
  instrumented_sw : Symbad_symbc.Ast.program;
  config_info : Symbad_symbc.Config_info.t;
}

val simulation_speed_khz : result -> float
(** Simulated bus-clock kHz achieved per host CPU second — the figure
    the paper reports as "simulation speed close to 200 kHz". *)

val config_info_of : Mapping.t -> Symbad_symbc.Config_info.t

val instrumented_program :
  ?omit_load_for:string list ->
  Task_graph.t ->
  Mapping.t ->
  Symbad_symbc.Ast.program
(** The CPU's cyclostatic schedule of the mapped graph (its SW and
    FPGA-resident tasks in topological order) as mini-C, with
    reconfiguration calls inserted before FPGA invocations — the
    [instrumented_sw] of a {!run}.  [omit_load_for] seeds the
    consistency bug used by the verification experiments. *)

val run :
  ?config:config ->
  ?omit_load_for:string list ->
  ?channel_loss:(string * (int -> bool)) list ->
  ?tap:
    (bus:Symbad_tlm.Bus.t ->
    fpga:Symbad_fpga.Fpga.t ->
    kernel:Symbad_sim.Kernel.t ->
    unit) ->
  Task_graph.t ->
  Mapping.t ->
  result
(** With [omit_load_for], the device's runtime check raises
    [Symbad_fpga.Fpga.Inconsistent] when the un-loaded resource is
    invoked — the dynamic counterpart of the SymbC verdict.

    Fault injection (see [Symbad_resil]): [channel_loss] makes the named
    channels lossy ([Symbad_sim.Fifo.set_loss]; the sender's bounded
    retransmit recovers dropped tokens); [tap] runs once after the
    platform is built and before simulation starts — the campaign engine
    uses it to install bus/download fault hooks and spawn saboteur
    processes.  Recovery built into the run: CRC-checked downloads with
    bounded re-download, periodic scrubbing ([config.scrub_period_ns]),
    a watchdog on wedged resources, and software fallback for FPGA
    firings once the fabric is unhealthy — the pipeline still produces
    the same data tokens. *)
