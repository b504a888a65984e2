(* Level 3: the reconfigurable platform.

   The FPGA device is instantiated on the bus and some HW modules move
   inside it, split into contexts.  FPGA-resident functions are invoked
   *synchronously from the software* (the paper: "inserting the FPGA's
   reconfiguration calls and the functional calls to mapped resources
   into the SW"), so the cyclostatic CPU loop now:
     - issues a reconfiguration (bitstream download over the bus +
       programming time) whenever the next FPGA call needs a context that
       is not loaded,
     - ships the operands to the FPGA over the bus, waits for the
       (annotated) FPGA computation, and reads the results back.

   The run also records the dynamic resource-call sequence and emits the
   instrumented mini-C program, which is exactly what SymbC consumes.

   Underneath sits the level-2 platform, which [Level2.run] simulates on
   its own by running this one on a mapping with no FPGA contexts: SW
   tasks collapse into a single CPU process executing a cyclostatic
   schedule (the topological order restricted to CPU-side tasks); each
   HW task is its own process.  Channels between two SW tasks stay
   CPU-internal; any channel with a HW endpoint is carried by the shared
   bus, the producer paying the transfer.  Task timing comes from the
   annotation model applied to the work units each firing reports
   (automatic for SW, as Vista does; the HW cost factors model the
   designer's manual annotation). *)

module Sim = Symbad_sim
module Tlm = Symbad_tlm
module Fpga = Symbad_fpga
module Annotation = Symbad_tlm.Annotation

type platform = {
  annotation : Annotation.t;
  bus_width_bytes : int;
  bus_period_ns : int;
  cpu_period_ns : int;
  hw_period_ns : int;
  fifo_capacity : int;  (* bounded channels; sinks stay unbounded *)
}

type config = {
  level2 : platform;
  fpga_capacity : int;
  fpga_period_ns : int;
  program_ns_per_byte : int;
  fpga_burst_bytes : int;  (* download granularity: 8 = programmed I/O *)
  task_area : string -> int;  (* area of each task's module *)
  scrub_period_ns : int;  (* readback-scrubbing period; 0 = off *)
  watchdog_ns : int;  (* wait before declaring a resource wedged *)
  masked : bool;  (* masked-fault mode: TMR contexts + SEC-DED bus ECC *)
}

let default_task_area = function
  | "DISTANCE" -> 900
  | "ROOT" -> 700
  | _ -> 500

let default_config =
  {
    level2 =
      {
        annotation = Annotation.default;
        bus_width_bytes = 4;
        bus_period_ns = 10;  (* 100 MHz AMBA *)
        cpu_period_ns = 20;  (* 50 MHz ARM7 class *)
        hw_period_ns = 10;  (* 100 MHz hardwired logic *)
        fifo_capacity = 2;
      };
    fpga_capacity = 1200;
    fpga_period_ns = 20;  (* FPGA fabric slower than hard gates *)
    program_ns_per_byte = 4;
    fpga_burst_bytes = 8;  (* CPU-driven programmed I/O, no DMA engine *)
    task_area = default_task_area;
    scrub_period_ns = 0;  (* scrubbing is opt-in: it adds bus traffic *)
    watchdog_ns = 2_000;
    (* masking is opt-in: it triples the fabric area and reconfiguration
       traffic and widens every bus transfer by 39/32 *)
    masked = false;
  }

type result = {
  trace : Sim.Trace.t;
  kernel_stats : Sim.Kernel.stats;
  bus_report : Tlm.Bus.report;
  cpu_stats : Tlm.Cpu.stats;
  fpga_stats : Fpga.Fpga.stats;
  latency_ns : int;
  bus_period_ns : int;  (* the bus clock the run simulated *)
  call_sequence : string list;  (* dynamic FPGA-resource invocations *)
  sw_fallbacks : int;  (* firings degraded to software *)
  channel_occupancy : (string * Sim.Fifo.occupancy) list;
  instrumented_sw : Symbad_symbc.Ast.program;
  config_info : Symbad_symbc.Config_info.t;
}

(* Simulated-clock speed achieved by the host, in kHz: how many simulated
   bus-clock cycles elapse per host CPU second — the figure the paper
   quotes as "simulation speed close to 200 kHz". *)
let simulation_speed_khz (r : result) =
  let cycles = float_of_int r.latency_ns /. float_of_int r.bus_period_ns in
  let secs = r.kernel_stats.Sim.Kernel.cpu_seconds in
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

(* Build the FPGA device from the mapping: one resource per FPGA task,
   grouped into contexts. *)
let build_fpga config mapping =
  let assignments = Mapping.fpga_tasks mapping in
  let contexts =
    List.map
      (fun ctx ->
        let members =
          List.filter_map
            (fun (task, c) -> if String.equal c ctx then Some task else None)
            assignments
        in
        Fpga.Context.make ctx
          (List.map
             (fun task ->
               Fpga.Resource.algorithm ~area:(config.task_area task) task)
             members))
      (Mapping.contexts mapping)
  in
  (* masked mode provisions a 3x fabric: the honest area price of TMR,
     visible as [area_loaded] in the device statistics *)
  let copies = if config.masked then 3 else 1 in
  Fpga.Fpga.create
    ~capacity:(config.fpga_capacity * copies)
    ~copies ~program_ns_per_byte:config.program_ns_per_byte
    ~burst_bytes:config.fpga_burst_bytes ~contexts "efpga"

(* The SymbC configuration-information input implied by the mapping. *)
let config_info_of mapping =
  let assignments = Mapping.fpga_tasks mapping in
  Symbad_symbc.Config_info.make
    ~fpga_functions:(List.map fst assignments)
    ~configurations:
      (List.map
         (fun ctx ->
           ( ctx,
             List.filter_map
               (fun (task, c) -> if String.equal c ctx then Some task else None)
               assignments ))
         (Mapping.contexts mapping))

(* The CPU's cyclostatic schedule: the SW and FPGA-resident tasks in
   topological order. *)
let cpu_schedule graph mapping =
  List.filter
    (fun (t : Task_graph.task) ->
      match Mapping.target_of mapping t.Task_graph.name with
      | Mapping.Sw | Mapping.Fpga _ -> true
      | Mapping.Hw -> false)
    (Task_graph.topological_order graph)

(* Instrumented SW: the cyclostatic loop with reconfiguration calls
   inserted before FPGA-resident invocations (omitting loads already
   guaranteed by the previous call in the straight-line schedule).
   [omit_load_for] seeds the consistency bug used by the verification
   experiments. *)
let instrumented_program ?(omit_load_for = []) graph mapping =
  let body =
    let current = ref None in
    List.concat_map
      (fun (t : Task_graph.task) ->
        let task = t.Task_graph.name in
        match Mapping.target_of mapping task with
        | Mapping.Sw | Mapping.Hw -> [ Symbad_symbc.Ast.call task ]
        | Mapping.Fpga ctx ->
            let load =
              if !current = Some ctx || List.mem task omit_load_for then []
              else [ Symbad_symbc.Ast.reconfig ctx ]
            in
            current := Some ctx;
            load @ [ Symbad_symbc.Ast.call task ])
      (cpu_schedule graph mapping)
  in
  [ Symbad_symbc.Ast.while_ body ]

let run ?(config = default_config) ?(omit_load_for = []) ?(channel_loss = [])
    ?tap (graph : Task_graph.t) (mapping : Mapping.t) =
  (* environment models (sources) must stay on the CPU: they pace the
     cyclostatic schedule *)
  List.iter
    (fun (t : Task_graph.task) ->
      if t.Task_graph.inputs = [] && not (Mapping.is_sw mapping t.Task_graph.name)
      then invalid_arg ("Level3.run: source " ^ t.Task_graph.name ^ " must be SW"))
    graph.Task_graph.tasks;
  let l2 = config.level2 in
  let kernel = Sim.Kernel.create () in
  let trace = Sim.Trace.create () in
  let bus =
    Tlm.Bus.create ~width_bytes:l2.bus_width_bytes
      ~period_ns:l2.bus_period_ns ~ecc:config.masked ()
  in
  let cpu = Tlm.Cpu.create ~period_ns:l2.cpu_period_ns () in
  let fpga = build_fpga config mapping in
  let calls = ref [] in
  let fifos : (string, Token.t Sim.Fifo.t) Hashtbl.t = Hashtbl.create 32 in
  let fifo_of channel =
    match Hashtbl.find_opt fifos channel with
    | Some f -> f
    | None ->
        (* sink channels are drained by the environment: unbounded *)
        let capacity =
          if List.mem channel graph.Task_graph.sinks then 0
          else l2.fifo_capacity
        in
        let f = Sim.Fifo.create ~capacity () in
        (match List.assoc_opt channel channel_loss with
        | Some p -> Sim.Fifo.set_loss f (Some p)
        | None -> ());
        Hashtbl.add fifos channel f;
        f
  in
  (* Reliable delivery over possibly-lossy links: a dropped put is
     detected through the channel's drop counter (the ack that never
     came) and re-sent, bounded.  Loss-free channels take the exact
     pre-fault path — the counter never moves. *)
  let reliable_put f token =
    let max_resend = 3 in
    let rec go n =
      let before = Sim.Fifo.drops f in
      Sim.Fifo.put f token;
      if Sim.Fifo.drops f > before && n < max_resend then go (n + 1)
    in
    go 0
  in
  let send ~master (t : Task_graph.task) outputs =
    List.iter2
      (fun channel token ->
        Sim.Trace.record trace ~time:(Sim.Kernel.now kernel)
          ~source:t.Task_graph.name ~label:channel (Token.digest token);
        if crosses_bus mapping graph channel then
          Tlm.Bus.transfer bus
            (Tlm.Transaction.make ~master ~target:channel
               ~kind:Tlm.Transaction.Write ~bytes:(Token.bytes token));
        reliable_put (fifo_of channel) token)
      t.Task_graph.outputs outputs
  in
  (* pure-HW tasks stay autonomous *)
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
                Annotation.cycles l2.annotation ~target:Annotation.Hw
                  ~weight:work
              in
              Sim.Process.wait (Sim.Time.ns (cycles * l2.hw_period_ns));
              send ~master:t.Task_graph.name t outputs;
              loop (firing_index + 1)
        in
        loop 0)
  in
  let schedule = cpu_schedule graph mapping in
  (* Unit-rate SDF: every task fires exactly once per source frame, so
     the cyclostatic CPU loop runs whole rounds (sources first, then the
     other CPU-side tasks in topological order, blocking on HW-produced
     inputs) and stops at the round in which every source is
     exhausted. *)
  let sources, cpu_rest =
    List.partition (fun (t : Task_graph.task) -> t.Task_graph.inputs = [])
      schedule
  in
  let sw_fallbacks = ref 0 in
  let cpu_done = ref false in
  let spawn_cpu () =
    Sim.Kernel.spawn kernel (fun () ->
        let ended : (string, unit) Hashtbl.t = Hashtbl.create 8 in
        let counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
        let fire_once (t : Task_graph.task) =
          if not (Hashtbl.mem ended t.Task_graph.name) then begin
            let name = t.Task_graph.name in
            let firing_index =
              Option.value ~default:0 (Hashtbl.find_opt counts name)
            in
            let inputs =
              List.map (fun c -> Sim.Fifo.get (fifo_of c)) t.Task_graph.inputs
            in
            match t.Task_graph.fire ~firing_index inputs with
            | None -> Hashtbl.replace ended name ()
            | Some { Task_graph.outputs; work } -> (
                Hashtbl.replace counts name (firing_index + 1);
                let fire_sw () =
                  let cycles =
                    Annotation.cycles l2.annotation ~target:Annotation.Sw
                      ~weight:work
                  in
                  Tlm.Cpu.execute cpu ~cycles;
                  send ~master:"cpu" t outputs
                in
                match Mapping.target_of mapping name with
                | Mapping.Hw -> assert false
                | Mapping.Sw -> fire_sw ()
                | Mapping.Fpga ctx ->
                    (* graceful degradation: once recovery has given up
                       on the fabric, the task's software implementation
                       computes the very same tokens, only slower *)
                    let fire_sw_fallback () =
                      incr sw_fallbacks;
                      fire_sw ()
                    in
                    if not (Fpga.Fpga.is_healthy fpga) then fire_sw_fallback ()
                    else begin
                      match
                        calls := name :: !calls;
                        (* reconfigure unless the SW omitted the load (bug
                           injection): then the device check fires *)
                        if not (List.mem name omit_load_for) then
                          Fpga.Fpga.reconfigure
                            ~verify_previous:(config.scrub_period_ns > 0)
                            fpga ~bus ~master:"cpu" ctx;
                        Fpga.Fpga.require fpga name
                      with
                      | exception Fpga.Fpga.Download_failed _ ->
                          (* persistent bitstream corruption: the context
                             cannot be brought up — degrade *)
                          Fpga.Fpga.mark_unhealthy fpga;
                          fire_sw_fallback ()
                      | () ->
                          if not (Fpga.Fpga.responding fpga name) then begin
                            (* wedged resource: the watchdog expires and
                               the controller declares the fabric sick *)
                            Sim.Process.wait (Sim.Time.ns config.watchdog_ns);
                            Fpga.Fpga.note_watchdog fpga;
                            Fpga.Fpga.mark_unhealthy fpga;
                            fire_sw_fallback ()
                          end
                          else begin
                            (* ship operands, compute, ship results *)
                            (match
                               List.iter
                                 (fun token ->
                                   Tlm.Bus.transfer bus
                                     (Tlm.Transaction.make ~master:"cpu"
                                        ~target:"efpga"
                                        ~kind:Tlm.Transaction.Write
                                        ~bytes:(Token.bytes token)))
                                 inputs
                             with
                            | exception Tlm.Bus.Transfer_failed _ ->
                                (* operands never reached the fabric; the
                                   CPU still holds them — degrade *)
                                Fpga.Fpga.mark_unhealthy fpga;
                                fire_sw_fallback ()
                            | () ->
                                let corrupt_pre =
                                  Fpga.Fpga.loaded_corrupted fpga
                                in
                                let cycles =
                                  Annotation.cycles l2.annotation
                                    ~target:Annotation.Fpga ~weight:work
                                in
                                Sim.Process.wait
                                  (Sim.Time.ns (cycles * config.fpga_period_ns));
                                if config.masked then begin
                                  (* TMR: the majority vote at readout
                                     masks a single upset copy — the
                                     result is correct and the dissenting
                                     copy is repaired in the shadow of
                                     continued operation.  Only a
                                     multi-copy corruption defeats the
                                     vote; then the result is discarded
                                     and redone in software. *)
                                  match Fpga.Fpga.vote_and_repair fpga with
                                  | `Corrupt -> fire_sw_fallback ()
                                  | `Clean | `Masked ->
                                      send ~master:"efpga" t outputs
                                end
                                else if
                                  config.scrub_period_ns > 0
                                  && (corrupt_pre
                                     || Fpga.Fpga.loaded_corrupted fpga)
                                then
                                  (* the result-integrity check that rides
                                     along with scrubbing: a computation
                                     that overlapped a corrupt interval is
                                     discarded and redone in software *)
                                  fire_sw_fallback ()
                                else
                                (* an unrepaired configuration upset makes
                                   the fabric compute garbage — silently *)
                                send ~master:"efpga" t
                                  (if corrupt_pre then
                                     List.map Token.garble outputs
                                   else outputs))
                          end
                    end)
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
            List.iter fire_once cpu_rest;
            rounds ()
          end
        in
        rounds ();
        (* drain-time voter scan: an upset that lands after the last
           datapath use would otherwise go unobserved (periodic
           scrubbing is off in masked mode); the scan repairs it
           latency-free before the platform retires *)
        if config.masked then ignore (Fpga.Fpga.vote_and_repair fpga);
        cpu_done := true)
  in
  (* periodic readback scrubbing: detects and repairs configuration
     upsets; stops at the first wake after the schedule has drained *)
  let spawn_scrubber () =
    if config.scrub_period_ns > 0 then
      Sim.Kernel.spawn kernel (fun () ->
          let rec loop () =
            Sim.Process.wait (Sim.Time.ns config.scrub_period_ns);
            if not !cpu_done then begin
              ignore (Fpga.Fpga.scrub fpga ~bus ~master:"scrubber");
              loop ()
            end
          in
          loop ())
  in
  List.iter
    (fun (t : Task_graph.task) ->
      match Mapping.target_of mapping t.Task_graph.name with
      | Mapping.Hw -> spawn_hw t
      | Mapping.Sw | Mapping.Fpga _ -> ())
    graph.Task_graph.tasks;
  spawn_cpu ();
  spawn_scrubber ();
  (* fault-injection tap: campaigns install bus/download hooks and spawn
     saboteur processes here, after the platform exists and before it
     runs.  [None] is the exact pre-fault code path. *)
  (match tap with
  | Some install -> install ~bus ~fpga ~kernel
  | None -> ());
  (* the processes still blocked when the queue drains (HW tasks waiting
     for input, a saboteur, bus waiters) are unwound once the figures
     below are read *)
  Fun.protect ~finally:(fun () -> Sim.Kernel.dispose kernel) @@ fun () ->
  Sim.Kernel.run kernel;
  let kernel_stats = Sim.Kernel.stats kernel in
  {
    trace;
    kernel_stats;
    bus_report = Tlm.Bus.report bus;
    cpu_stats = Tlm.Cpu.stats cpu;
    fpga_stats = Fpga.Fpga.stats fpga;
    latency_ns = Sim.Time.to_ns kernel_stats.Sim.Kernel.final_time;
    bus_period_ns = l2.bus_period_ns;
    call_sequence = List.rev !calls;
    sw_fallbacks = !sw_fallbacks;
    channel_occupancy =
      Hashtbl.fold (fun name f acc -> (name, Sim.Fifo.occupancy f) :: acc)
        fifos []
      |> List.sort compare;
    instrumented_sw = instrumented_program ~omit_load_for graph mapping;
    config_info = config_info_of mapping;
  }
