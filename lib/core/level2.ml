(* Level 2: timed transaction-level simulation of the mapped
   architecture.  It is the level-3 platform with no FPGA contexts, so
   it runs [Level3.run]: the CPU, bus, HW processes and FIFOs are the
   ones level 3 refines, and the level-2 to level-3 trace comparison
   measures the reconfiguration alone. *)

(* Re-exported with its fields so that callers keep reading
   [r.Level2.trace]. *)
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

let run ?(config = Level3.default_config.Level3.level2) (graph : Task_graph.t)
    (mapping : Mapping.t) =
  (* environment models (sources) must stay on the CPU: they pace the
     cyclostatic schedule *)
  List.iter
    (fun (t : Task_graph.task) ->
      if t.Task_graph.inputs = [] && not (Mapping.is_sw mapping t.Task_graph.name)
      then invalid_arg ("Level2.run: source " ^ t.Task_graph.name ^ " must be SW"))
    graph.Task_graph.tasks;
  List.iter
    (fun (t : Task_graph.task) ->
      match Mapping.target_of mapping t.Task_graph.name with
      | Mapping.Fpga _ ->
          invalid_arg "Level2.run: FPGA targets appear only at level 3"
      | Mapping.Sw | Mapping.Hw -> ())
    graph.Task_graph.tasks;
  Level3.run
    ~config:{ Level3.default_config with Level3.level2 = config }
    graph mapping
