(* Level 2: timed transaction-level simulation of the mapped
   architecture.

   SW tasks are collapsed into a single CPU process executing a
   cyclostatic schedule (the topological order restricted to SW tasks);
   each HW task is its own process.  Channels between two SW tasks stay
   CPU-internal; any channel with a HW endpoint is carried by the shared
   bus, the producer paying the transfer.  Task timing comes from the
   annotation model applied to the work units each firing reports
   (automatic for SW, as Vista does; the HW cost factors model the
   designer's manual annotation). *)

module Sim = Symbad_sim
module Tlm = Symbad_tlm
module Annotation = Symbad_tlm.Annotation

type config = {
  annotation : Annotation.t;
  bus_width_bytes : int;
  bus_period_ns : int;
  cpu_period_ns : int;
  hw_period_ns : int;
  fifo_capacity : int;
}

let default_config =
  {
    annotation = Annotation.default;
    bus_width_bytes = 4;
    bus_period_ns = 10;  (* 100 MHz AMBA *)
    cpu_period_ns = 20;  (* 50 MHz ARM7 class *)
    hw_period_ns = 10;  (* 100 MHz hardwired logic *)
    fifo_capacity = 2;
  }

type result = {
  trace : Sim.Trace.t;
  kernel_stats : Sim.Kernel.stats;
  bus_report : Tlm.Bus.report;
  cpu_stats : Tlm.Cpu.stats;
  latency_ns : int;
  channel_occupancy : (string * Sim.Fifo.occupancy) list;
}

(* Simulated-clock speed achieved by the host, in kHz: how many simulated
   bus-clock cycles elapse per host CPU second — the figure the paper
   quotes as "simulation speed close to 200 kHz". *)
let simulation_speed_khz ~bus_period_ns result =
  let cycles = float_of_int result.latency_ns /. float_of_int bus_period_ns in
  let secs = result.kernel_stats.Sim.Kernel.cpu_seconds in
  if secs <= 0. then infinity else cycles /. secs /. 1000.

(* Does the channel cross out of the CPU? *)
let crosses_bus mapping graph channel =
  let endpoint_sw task_opt =
    match task_opt with
    | None -> true (* environment side: no bus model *)
    | Some (t : Task_graph.task) -> Mapping.is_sw mapping t.Task_graph.name
  in
  not
    (endpoint_sw (Task_graph.producer_of graph channel)
    && endpoint_sw (Task_graph.consumer_of graph channel))

let run ?(config = default_config) (graph : Task_graph.t)
    (mapping : Mapping.t) =
  (* environment models (sources) must stay on the CPU: they pace the
     cyclostatic schedule *)
  List.iter
    (fun (t : Task_graph.task) ->
      if t.Task_graph.inputs = [] && not (Mapping.is_sw mapping t.Task_graph.name)
      then invalid_arg ("Level2.run: source " ^ t.Task_graph.name ^ " must be SW"))
    graph.Task_graph.tasks;
  let kernel = Sim.Kernel.create () in
  let trace = Sim.Trace.create () in
  let bus =
    Tlm.Bus.create ~width_bytes:config.bus_width_bytes
      ~period_ns:config.bus_period_ns "amba"
  in
  let cpu = Tlm.Cpu.create ~period_ns:config.cpu_period_ns "arm7" in
  let fifos : (string, Token.t Sim.Fifo.t) Hashtbl.t = Hashtbl.create 32 in
  let fifo_of channel =
    match Hashtbl.find_opt fifos channel with
    | Some f -> f
    | None ->
        (* sink channels are drained by the environment: unbounded *)
        let capacity =
          if List.mem channel graph.Task_graph.sinks then 0
          else config.fifo_capacity
        in
        let f = Sim.Fifo.create ~capacity channel in
        Hashtbl.add fifos channel f;
        f
  in
  let record task channel token =
    Sim.Trace.record trace ~time:(Sim.Kernel.now kernel) ~source:task
      ~label:channel (Token.digest token)
  in
  let send ~master task channel token =
    record task channel token;
    if crosses_bus mapping graph channel then
      Tlm.Bus.transfer bus
        (Tlm.Transaction.make ~master ~target:channel ~kind:Tlm.Transaction.Write
           ~bytes:(Token.bytes token));
    Sim.Fifo.put (fifo_of channel) token
  in
  (* HW tasks: autonomous processes *)
  let spawn_hw (t : Task_graph.task) =
    Sim.Kernel.spawn kernel (fun () ->
        let rec loop firing_index =
          let inputs =
            List.map (fun c -> Sim.Fifo.get (fifo_of c)) t.Task_graph.inputs
          in
          match t.Task_graph.fire ~firing_index inputs with
          | None -> ()
          | Some { Task_graph.outputs; work } ->
              let cycles =
                Annotation.cycles config.annotation ~target:Annotation.Hw
                  ~weight:work
              in
              Sim.Process.wait (Sim.Time.ns (cycles * config.hw_period_ns));
              List.iter2
                (fun c token -> send ~master:t.Task_graph.name t.Task_graph.name c token)
                t.Task_graph.outputs outputs;
              loop (firing_index + 1)
        in
        loop 0)
  in
  (* SW tasks: one CPU process, cyclostatic schedule in topological order *)
  let sw_schedule =
    List.filter
      (fun (t : Task_graph.task) -> Mapping.is_sw mapping t.Task_graph.name)
      (Task_graph.topological_order graph)
  in
  (* Unit-rate SDF: every task fires exactly once per source frame, so
     the cyclostatic CPU loop runs whole rounds (sources first, then the
     other SW tasks in topological order, blocking on HW-produced inputs)
     and stops at the round in which every source is exhausted. *)
  let sources, sw_rest =
    List.partition (fun (t : Task_graph.task) -> t.Task_graph.inputs = [])
      sw_schedule
  in
  let spawn_cpu () =
    Sim.Kernel.spawn kernel (fun () ->
        let ended : (string, unit) Hashtbl.t = Hashtbl.create 8 in
        let counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
        let fire_once (t : Task_graph.task) =
          if not (Hashtbl.mem ended t.Task_graph.name) then begin
            let firing_index =
              Option.value ~default:0 (Hashtbl.find_opt counts t.Task_graph.name)
            in
            let inputs =
              List.map (fun c -> Sim.Fifo.get (fifo_of c)) t.Task_graph.inputs
            in
            match t.Task_graph.fire ~firing_index inputs with
            | None -> Hashtbl.replace ended t.Task_graph.name ()
            | Some { Task_graph.outputs; work } ->
                Hashtbl.replace counts t.Task_graph.name (firing_index + 1);
                let cycles =
                  Annotation.cycles config.annotation ~target:Annotation.Sw
                    ~weight:work
                in
                Tlm.Cpu.execute cpu ~cycles;
                List.iter2
                  (fun c token -> send ~master:"cpu" t.Task_graph.name c token)
                  t.Task_graph.outputs outputs
          end
        in
        let rec rounds () =
          List.iter fire_once sources;
          let live =
            List.exists
              (fun (t : Task_graph.task) ->
                not (Hashtbl.mem ended t.Task_graph.name))
              sources
          in
          if live then begin
            List.iter fire_once sw_rest;
            rounds ()
          end
        in
        rounds ())
  in
  List.iter
    (fun (t : Task_graph.task) ->
      match Mapping.target_of mapping t.Task_graph.name with
      | Mapping.Hw -> spawn_hw t
      | Mapping.Sw -> ()
      | Mapping.Fpga _ ->
          invalid_arg "Level2.run: FPGA targets appear only at level 3")
    graph.Task_graph.tasks;
  spawn_cpu ();
  Sim.Kernel.run kernel;
  let kernel_stats = Sim.Kernel.stats kernel in
  {
    trace;
    kernel_stats;
    bus_report = Tlm.Bus.report bus;
    cpu_stats = Tlm.Cpu.stats cpu;
    latency_ns = Sim.Time.to_ns kernel_stats.Sim.Kernel.final_time;
    channel_occupancy =
      Hashtbl.fold (fun name f acc -> (name, Sim.Fifo.occupancy f) :: acc)
        fifos []
      |> List.sort compare;
  }
