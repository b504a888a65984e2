(** Level 2: timed transaction-level simulation of the mapped
    architecture — the level-3 platform ({!Level3.run}) on a mapping
    with no FPGA contexts.

    SW tasks collapse into one CPU process running a cyclostatic
    schedule; HW tasks are autonomous processes; channels with a HW
    endpoint ride the shared bus.  Timing comes from the annotation
    model applied to each firing's work units. *)

type result = Level3.result = {
  trace : Symbad_sim.Trace.t;
  kernel_stats : Symbad_sim.Kernel.stats;
  bus_report : Symbad_tlm.Bus.report;
  cpu_stats : Symbad_tlm.Cpu.stats;
  fpga_stats : Symbad_fpga.Fpga.stats;
  latency_ns : int;
  bus_period_ns : int;
  call_sequence : string list;
  sw_fallbacks : int;
  channel_occupancy : (string * Symbad_sim.Fifo.occupancy) list;
  instrumented_sw : Symbad_symbc.Ast.program;
  config_info : Symbad_symbc.Config_info.t;
}

val run : ?config:Level3.platform -> Task_graph.t -> Mapping.t -> result
(** [config] defaults to [Level3.default_config.level2].  Raises
    [Invalid_argument] if a source is not mapped to SW or any task is
    mapped to an FPGA context (that is level 3). *)
