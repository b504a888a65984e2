(* Bridge from the system model to the LPV abstraction.

   "The SystemC model is translated in an abstract model where
   communication and synchronization characteristics remain
   un-abstracted": tasks become transitions (delay = annotated firing
   time on their mapped resource), each channel a forward place, each
   bounded channel also a backward credit place carrying its capacity,
   and each task a marked self-loop (it cannot fire twice
   concurrently). *)

module Annotation = Symbad_tlm.Annotation
module Lpv = Symbad_lpv

(* A firing's delay reads the annotation and the clock periods, and each
   channel its capacity, from the platform config the level-2/3
   simulations run, so LPV times the platform that is simulated. *)
let default_timing = Level3.default_config

let firing_delay_ns (timing : Level3.config) mapping profile task =
  let weight = Annotation.Profile.units_per_firing profile task in
  let target = Mapping.target_of mapping task in
  let cycles =
    Annotation.cycles timing.level2.annotation
      ~target:(Mapping.annotation_target target)
      ~weight
  in
  let period =
    match target with
    | Mapping.Sw -> timing.level2.cpu_period_ns
    | Mapping.Hw -> timing.level2.hw_period_ns
    | Mapping.Fpga _ -> timing.fpga_period_ns
  in
  cycles * period

(* Build the net.  The simulated FIFO capacity bounds every channel (0 =
   unbounded: no credit place).  [extra_channels] adds feedback edges
   absent from the dataflow graph (used to model synchronisation added at
   mapping time, and to seed the deadlock experiment). *)
let net_of ?(extra_channels = []) ?(timing = default_timing) ?mapping ?profile
    (graph : Task_graph.t) =
  let net = Lpv.Petri.create () in
  let capacity = timing.level2.fifo_capacity in
  let delay_of task =
    match (mapping, profile) with
    | Some m, Some p -> firing_delay_ns timing m p task
    | _ -> 1
  in
  let tindex : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (t : Task_graph.task) ->
      let i =
        Lpv.Petri.add_transition net ~delay:(delay_of t.Task_graph.name) ()
      in
      Hashtbl.add tindex t.Task_graph.name i;
      (* serial re-execution: a marked self-loop *)
      let self =
        Lpv.Petri.add_place net ~tokens:1 ("self." ^ t.Task_graph.name)
      in
      Lpv.Petri.add_pre net ~transition:i ~place:self;
      Lpv.Petri.add_post net ~transition:i ~place:self)
    graph.Task_graph.tasks;
  let add_channel ?(tokens = 0) name src dst =
    let producer = Hashtbl.find tindex src and consumer = Hashtbl.find tindex dst in
    let fwd = Lpv.Petri.add_place net ~tokens name in
    Lpv.Petri.add_post net ~transition:producer ~place:fwd;
    Lpv.Petri.add_pre net ~transition:consumer ~place:fwd;
    if capacity > 0 then begin
      let credit = Lpv.Petri.add_place net ~tokens:capacity (name ^ ".credit") in
      Lpv.Petri.add_pre net ~transition:producer ~place:credit;
      Lpv.Petri.add_post net ~transition:consumer ~place:credit
    end
  in
  List.iter
    (fun c ->
      if not (List.mem c graph.Task_graph.sinks) then
        match (Task_graph.producer_of graph c, Task_graph.consumer_of graph c)
        with
        | Some p, Some q ->
            add_channel c p.Task_graph.name q.Task_graph.name
        | _ -> ())
    (Task_graph.channels graph);
  List.iter
    (fun (name, src, dst, tokens) -> add_channel ~tokens name src dst)
    extra_channels;
  net

(* The level-1 deadlock-freeness check and the level-2 timing checks, as
   the flow invokes them.  Each takes the governor through to the LPV
   engines, which degrade to Not_analyzable / None on exhaustion. *)
let check_deadlock ?extra_channels ?gov graph =
  Lpv.Deadlock.check ?gov (net_of ?extra_channels graph)

let check_deadline ~deadline_ns ~timing ~mapping ~profile ?gov graph =
  (* one search: whether the deadline is met is read off the period, so
     a second solve can never disagree with (or degrade after) the first *)
  let v =
    Lpv.Timing.min_cycle_ratio ?gov (net_of ~timing ~mapping ~profile graph)
  in
  (v, Lpv.Timing.meets ~deadline:deadline_ns v)

let dimension_fifos ~deadline_ns ~timing ~mapping ~profile ?gov graph =
  let with_capacity fifo_capacity =
    { timing with Level3.level2 = { timing.Level3.level2 with fifo_capacity } }
  in
  Lpv.Timing.min_uniform_capacity ?gov ~deadline:deadline_ns
    ~build:(fun c -> net_of ~timing:(with_capacity c) ~mapping ~profile graph)
    ()
