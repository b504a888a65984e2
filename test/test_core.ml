(* Tests for the core flow: tokens, task graphs, the four levels, the
   transformations, exploration and the end-to-end flow. *)

open Symbad_core
module Sim = Symbad_sim

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Token --- *)

let token_bytes () =
  check "frame" (8 * 8)
    (Token.bytes (Token.Frame (Symbad_image.Image.create ~width:8 ~height:8)));
  check "vec" 6 (Token.bytes (Token.Vec [| 1; 2; 3 |]));
  check "mat" 8 (Token.bytes (Token.Mat [| [| 1; 2 |]; [| 3; 4 |] |]));
  check "num" 4 (Token.bytes (Token.Num 9))

let token_digest_stable () =
  check_bool "stable" true
    (Token.digest (Token.Vec [| 1; 2 |]) = Token.digest (Token.Vec [| 1; 2 |]));
  check_bool "distinguishes" false
    (Token.digest (Token.Vec [| 1; 2 |]) = Token.digest (Token.Vec [| 2; 1 |]))

(* The exact digest strings: every level's trace comparison and the
   golden reports rest on them, so a rewrite must keep them byte for
   byte.  A [Mat] or [Scan] hashes its elements in row order as one
   sequence, empty rows and the sign of a component included. *)
let token_digest_strings () =
  let check_str = Alcotest.(check string) in
  check_str "vec" "Vv8/f4e6c9090bf6f63"
    (Token.digest (Token.Vec [| 3; 1; 4; 1; 5; 9; -2; max_int |]));
  check_str "empty vec" "Vv0/cbf29ce484222325" (Token.digest (Token.Vec [||]));
  check_str "ragged mat" "Mv6/9746a713f3a6584a"
    (Token.digest (Token.Mat [| [| 1; 2; 3 |]; [||]; [| 4 |]; [| 5; 6 |] |]));
  check_str "empty mat" "Mv0/cbf29ce484222325" (Token.digest (Token.Mat [||]));
  check_str "scan" "Sv5/3a82badb7f0f04d0"
    (Token.digest
       (Token.Scan
          { Symbad_image.Line.rows = [| 10; 20; 30 |]; cols = [| 7; 8 |] }))

let token_accessors_reject () =
  check_bool "raises" true
    (try ignore (Token.to_frame (Token.Num 1)); false
     with Invalid_argument _ -> true)

(* --- Task_graph --- *)

let tiny_graph ?(frames = 3) () =
  let source =
    Task_graph.source ~name:"SRC" ~outputs:[ "a" ] ~work:10 (fun i ->
        if i >= frames then None else Some [ Token.Num i ])
  in
  let double =
    Task_graph.transform ~name:"DBL" ~inputs:[ "a" ] ~outputs:[ "b" ]
      ~work:(fun _ -> 20)
      (function [ Token.Num n ] -> [ Token.Num (2 * n) ] | _ -> assert false)
  in
  Task_graph.make ~name:"tiny" ~tasks:[ source; double ] ~sinks:[ "b" ]

let graph_validation () =
  let bad_two_producers () =
    let s1 = Task_graph.source ~name:"S1" ~outputs:[ "x" ] ~work:1 (fun _ -> None) in
    let s2 = Task_graph.source ~name:"S2" ~outputs:[ "x" ] ~work:1 (fun _ -> None) in
    Task_graph.make ~name:"bad" ~tasks:[ s1; s2 ] ~sinks:[ "x" ]
  in
  check_bool "two producers" true
    (try ignore (bad_two_producers ()); false with Invalid_argument _ -> true);
  let bad_unconsumed () =
    let s = Task_graph.source ~name:"S" ~outputs:[ "x" ] ~work:1 (fun _ -> None) in
    Task_graph.make ~name:"bad" ~tasks:[ s ] ~sinks:[]
  in
  check_bool "unconsumed channel" true
    (try ignore (bad_unconsumed ()); false with Invalid_argument _ -> true)

(* The smoke case study, shared by the tests below: each part is built
   once, when a test first reads it. *)
let smoke = Face_app.case_study Face_app.smoke_workload
let ( !! ) = Lazy.force

let graph_topological_order () =
  let g = !!(smoke.graph) in
  let order = Task_graph.topological_order g in
  check "all tasks" 13 (List.length order);
  let pos name =
    let rec go i = function
      | [] -> -1
      | (t : Task_graph.task) :: rest ->
          if t.Task_graph.name = name then i else go (i + 1) rest
    in
    go 0 order
  in
  check_bool "CAMERA before BAYER" true (pos "CAMERA" < pos "BAYER");
  check_bool "DISTANCE before ROOT" true (pos "DISTANCE" < pos "ROOT");
  check_bool "ROOT before WINNER" true (pos "ROOT" < pos "WINNER")

(* --- Level 1 --- *)

let level1_runs_and_profiles () =
  let g = tiny_graph () in
  let r = Level1.run g in
  Alcotest.(check (list string)) "sink data" [ "N0"; "N2"; "N4" ]
    (Sim.Trace.stream_of r.Level1.trace ~source:"DBL" ~label:"b");
  (* one trace entry per output token per firing *)
  Alcotest.(check (list (pair string int))) "firings"
    [ ("DBL", 3); ("SRC", 3) ]
    (List.map
       (fun (source, label) ->
         let stream = Sim.Trace.stream_of r.Level1.trace ~source ~label in
         (source, List.length stream))
       (Sim.Trace.sources r.Level1.trace));
  check "profile units" 60
    (let open Symbad_tlm.Annotation in
     match List.assoc_opt "DBL" (Profile.ranking r.Level1.profile) with
     | Some u -> u
     | None -> 0)

let level1_matches_reference () =
  check "no mismatches" 0
    (List.length
       (Sim.Trace.compare_data ~reference:!!(smoke.reference)
          ~actual:!!(smoke.level1).Level1.trace))

(* --- the case study --- *)

(* Each part is built once: repeated reads return the same value, and
   every value equals what the chain gives when built by hand. *)
let case_study_parts () =
  let cs = Face_app.case_study Face_app.smoke_workload in
  let once name part =
    check_bool (name ^ " built once") true (!!part == !!part)
  in
  once "database" cs.database;
  once "graph" cs.graph;
  once "reference" cs.reference;
  once "level1" cs.level1;
  once "mapping2" cs.mapping2;
  once "mapping3" cs.mapping3;
  once "level2" cs.level2;
  once "level3" cs.level3;
  (* the chain by hand *)
  let w = Face_app.smoke_workload in
  let db =
    Symbad_image.Pipeline.enroll ~size:w.Face_app.size
      ~identities:w.Face_app.identities ()
  in
  let g = Face_app.graph w in
  let l1 = Level1.run g in
  let m2 = Face_app.level2_mapping ~profile:l1.Level1.profile g in
  let m3 = Mapping.refine_to_fpga m2 Face_app.level3_refinement in
  let l2 = Level2.run g m2 and l3 = Level3.run g m3 in
  check_bool "database" true
    (Symbad_image.Database.entries db
    = Symbad_image.Database.entries !!(cs.database));
  let shape (g : Task_graph.t) =
    ( g.Task_graph.sinks,
      List.map
        (fun (t : Task_graph.task) ->
          (t.Task_graph.name, t.Task_graph.inputs, t.Task_graph.outputs))
        g.Task_graph.tasks )
  in
  check_bool "graph" true (shape g = shape !!(cs.graph));
  let same_data name reference actual =
    check_bool name true (Sim.Trace.equal_data ~reference ~actual)
  in
  same_data "reference" (Face_app.reference_trace w) !!(cs.reference);
  same_data "level1 trace" l1.Level1.trace !!(cs.level1).Level1.trace;
  check_bool "profile" true
    (Symbad_tlm.Annotation.Profile.ranking l1.Level1.profile
    = Symbad_tlm.Annotation.Profile.ranking !!(cs.level1).Level1.profile);
  check_bool "mapping2" true (m2 = !!(cs.mapping2));
  check_bool "mapping3" true (m3 = !!(cs.mapping3));
  List.iter
    (fun (name, (hand : Level3.result), (r : Level3.result)) ->
      same_data (name ^ " trace") hand.Level3.trace r.Level3.trace;
      check (name ^ " latency") hand.Level3.latency_ns r.Level3.latency_ns;
      check_bool (name ^ " platform") true
        (hand.Level3.bus_report = r.Level3.bus_report
        && hand.Level3.fpga_stats = r.Level3.fpga_stats
        && hand.Level3.cpu_stats = r.Level3.cpu_stats
        && hand.Level3.channel_occupancy = r.Level3.channel_occupancy
        && hand.Level3.instrumented_sw = r.Level3.instrumented_sw))
    [ ("level2", l2, !!(cs.level2)); ("level3", l3, !!(cs.level3)) ]

(* --- Level 2 --- *)

let level2_preserves_data () =
  let g = tiny_graph () in
  let l1 = Level1.run g in
  let mapping = Mapping.move (Mapping.all_sw g) "DBL" Mapping.Hw in
  let l2 = Level2.run g mapping in
  check_bool "data equal" true
    (Sim.Trace.equal_data ~reference:l1.Level1.trace ~actual:l2.Level2.trace);
  check_bool "takes time" true (l2.Level2.latency_ns > 0)

let level2_hw_speedup () =
  let g = tiny_graph ~frames:6 () in
  let all_sw = Level2.run g (Mapping.all_sw g) in
  let hw = Level2.run g (Mapping.move (Mapping.all_sw g) "DBL" Mapping.Hw) in
  check_bool "hw faster" true (hw.Level2.latency_ns < all_sw.Level2.latency_ns)

let level2_bus_only_for_crossings () =
  let g = tiny_graph () in
  let all_sw = Level2.run g (Mapping.all_sw g) in
  check "no bus traffic when everything is SW" 0
    all_sw.Level2.bus_report.Symbad_tlm.Bus.transactions

let level2_rejects_fpga_and_hw_sources () =
  let g = tiny_graph () in
  check_bool "fpga at level 2" true
    (try
       ignore (Level2.run g [ ("SRC", Mapping.Sw); ("DBL", Mapping.Fpga "c") ]);
       false
     with Invalid_argument _ -> true);
  check_bool "hw source" true
    (try
       ignore (Level2.run g [ ("SRC", Mapping.Hw); ("DBL", Mapping.Sw) ]);
       false
     with Invalid_argument _ -> true)

(* --- Level 3 --- *)

let level3_preserves_data_and_costs_time () =
  let l1 = !!(smoke.level1) and l2 = !!(smoke.level2) in
  let l3 = !!(smoke.level3) in
  check_bool "data equal to level2" true
    (Sim.Trace.equal_data ~reference:l2.Level2.trace ~actual:l3.Level3.trace);
  check_bool "data equal to level1" true
    (Sim.Trace.equal_data ~reference:l1.Level1.trace ~actual:l3.Level3.trace);
  check_bool "reconfiguration slows the system" true
    (l3.Level3.latency_ns > l2.Level2.latency_ns);
  check_bool "bitstream traffic on the bus" true
    (l3.Level3.bus_report.Symbad_tlm.Bus.bitstream_bytes > 0)

let level3_reconfig_count () =
  (* DISTANCE and ROOT alternate every frame: 2 reconfigs per frame *)
  check "reconfigurations"
    (2 * List.length Face_app.smoke_workload.Face_app.frames)
    !!(smoke.level3).Level3.fpga_stats.Symbad_fpga.Fpga.reconfigurations

let level3_single_context_loads_once () =
  let m3 =
    Mapping.refine_to_fpga !!(smoke.mapping2)
      [ ("DISTANCE", "ctx"); ("ROOT", "ctx") ]
  in
  let config = { Level3.default_config with Level3.fpga_capacity = 2000 } in
  let l3 = Level3.run ~config !!(smoke.graph) m3 in
  check "loads once" 1 l3.Level3.fpga_stats.Symbad_fpga.Fpga.reconfigurations

let level3_emits_consistent_sw () =
  let l3 = !!(smoke.level3) in
  match Symbad_symbc.Check.check l3.Level3.config_info l3.Level3.instrumented_sw with
  | Symbad_symbc.Check.Consistent _ -> ()
  | Symbad_symbc.Check.Inconsistent _ ->
      Alcotest.fail "generated SW must be consistent"

let level3_seeded_bug_detected_statically_and_dynamically () =
  let g = !!(smoke.graph) and m3 = !!(smoke.mapping3) in
  (* static: SymbC on the buggy program *)
  let buggy = Level3.instrumented_program ~omit_load_for:[ "ROOT" ] g m3 in
  (match Symbad_symbc.Check.check (Level3.config_info_of m3) buggy with
  | Symbad_symbc.Check.Inconsistent cex ->
      Alcotest.(check string) "static" "ROOT" cex.Symbad_symbc.Check.failing_call
  | Symbad_symbc.Check.Consistent _ -> Alcotest.fail "SymbC must find the bug");
  (* dynamic: the simulation raises the device check *)
  check_bool "dynamic" true
    (try
       ignore (Level3.run ~omit_load_for:[ "ROOT" ] g m3);
       false
     with Symbad_fpga.Fpga.Inconsistent { resource; _ } -> resource = "ROOT")

(* A saboteur that blocks forever is unwound when the run returns. *)
let level3_unwinds_blocked_processes () =
  let unwound = ref false in
  let tap ~bus:_ ~fpga:_ ~kernel =
    Sim.Kernel.spawn kernel (fun () ->
        Fun.protect
          ~finally:(fun () -> unwound := true)
          (fun () -> Sim.Process.suspend (fun _never_resumed -> ())))
  in
  let r = Level3.run ~tap !!(smoke.graph) !!(smoke.mapping3) in
  check_bool "saboteur's finally ran" true !unwound;
  let l3 = !!(smoke.level3) in
  check "same latency" l3.Level3.latency_ns r.Level3.latency_ns;
  check_bool "same fpga figures" true
    (l3.Level3.fpga_stats = r.Level3.fpga_stats)

(* --- Lpv bridge --- *)

let lpv_bridge_face_app () =
  let g = !!(smoke.graph) in
  (match Lpv_bridge.check_deadlock g with
  | Symbad_lpv.Deadlock.Deadlock_free _ -> ()
  | _ -> Alcotest.fail "face app is deadlock-free");
  let timing = Lpv_bridge.default_timing in
  let verdict, met =
    Lpv_bridge.check_deadline ~deadline_ns:1_000_000_000 ~timing
      ~mapping:!!(smoke.mapping2) ~profile:!!(smoke.level1).Level1.profile g
  in
  check_bool "generous deadline met" true met;
  (match verdict with
  | Symbad_lpv.Timing.Period _ -> ()
  | Symbad_lpv.Timing.Unschedulable _ | Symbad_lpv.Timing.Not_analyzable _
    ->
      Alcotest.fail "schedulable")

let lpv_bridge_seeded_deadlock () =
  let g = tiny_graph () in
  (* add an unprimed feedback channel: DBL waits for SRC's next output
     while SRC waits for credit that only DBL can return *)
  match
    Lpv_bridge.check_deadlock
      ~extra_channels:[ ("feedback", "DBL", "SRC", 0) ]
      g
  with
  | Symbad_lpv.Deadlock.Potential_deadlock { witness } ->
      check_bool "witness mentions feedback" true
        (List.exists (fun p -> p = "feedback" || p = "a") witness)
  | _ -> Alcotest.fail "expected deadlock"

(* One search per timing question: the verdict row reads the deadline
   off the period it found, so a deadline equal to the period is met,
   one below it is missed, and a spent governor leaves it undecided. *)
let lpv_bridge_deadline_verdicts () =
  let deadline_row ?gov deadline_ns =
    let period, met =
      Lpv_bridge.check_deadline ~deadline_ns ~timing:Lpv_bridge.default_timing
        ~mapping:!!(smoke.mapping2) ~profile:!!(smoke.level1).Level1.profile
        ?gov !!(smoke.graph)
    in
    (period, Verdict.of_lpv_timing ~deadline_ns ~met period)
  in
  let period =
    match fst (deadline_row Face_app.deadline_ns) with
    | Symbad_lpv.Timing.Period p when Symbad_lpv.Rat.den p = 1 ->
        Symbad_lpv.Rat.num p
    | v -> Alcotest.failf "expected a whole period, got %a" Symbad_lpv.Timing.pp_verdict v
  in
  let outcome ?gov deadline_ns =
    Verdict.outcome_label (snd (deadline_row ?gov deadline_ns)).Verdict.outcome
  in
  Alcotest.(check string) "deadline = period" "proved" (outcome period);
  Alcotest.(check string) "deadline below the period" "disproved"
    (outcome (period - 1));
  let spent =
    Symbad_gov.Gov.create ~label:"spent"
      (Symbad_gov.Budget.make ~conflicts:0 ~patterns:0 ())
  in
  Alcotest.(check string) "exhausted governor" "inconclusive"
    (outcome ~gov:spent period)

let lpv_bridge_fifo_dimensioning () =
  let timing = Lpv_bridge.default_timing in
  match
    Lpv_bridge.dimension_fifos ~deadline_ns:1_000_000_000 ~timing
      ~mapping:!!(smoke.mapping2) ~profile:!!(smoke.level1).Level1.profile
      !!(smoke.graph)
  with
  | Some c -> check_bool "small capacity suffices" true (c <= 4)
  | None -> Alcotest.fail "expected a capacity"

(* LPV times the platform it is given: with every task on the CPU, each
   delay is cycles times the CPU period, so doubling that period in the
   config doubles the minimum cycle time exactly; and every channel holds
   the FIFO capacity the config simulates, so on the level-2 mapping
   one-slot channels lengthen the cycle.  The default is the platform
   the case study simulates. *)
let lpv_bridge_reads_platform () =
  check_bool "default timing is the simulated platform" true
    (Lpv_bridge.default_timing == Level3.default_config);
  let g = !!(smoke.graph) in
  let period mapping timing =
    match
      fst
        (Lpv_bridge.check_deadline ~deadline_ns:Face_app.deadline_ns ~timing
           ~mapping ~profile:!!(smoke.level1).Level1.profile g)
    with
    | Symbad_lpv.Timing.Period p -> p
    | v -> Alcotest.failf "expected a period, got %a" Symbad_lpv.Timing.pp_verdict v
  in
  let base = Level3.default_config in
  let with_level2 level2 = { base with Level3.level2 } in
  let slow_cpu =
    with_level2
      { base.Level3.level2 with cpu_period_ns = 2 * base.level2.cpu_period_ns }
  in
  let all_sw = Mapping.all_sw g in
  check_bool "doubled CPU period doubles the cycle time" true
    (Symbad_lpv.Rat.equal (period all_sw slow_cpu)
       (Symbad_lpv.Rat.mul (Symbad_lpv.Rat.of_int 2) (period all_sw base)));
  let mapping2 = !!(smoke.mapping2) in
  let period_ns timing = Symbad_lpv.Rat.to_float (period mapping2 timing) in
  Alcotest.(check (float 0.)) "period at the default capacity 2" 245_760.
    (period_ns base);
  Alcotest.(check (float 0.)) "period at capacity 1" 386_560.
    (period_ns (with_level2 { base.Level3.level2 with fifo_capacity = 1 }))

(* --- Transform --- *)

let transform_moves () =
  let g = tiny_graph ~frames:4 () in
  let l1 = Level1.run g in
  let d = Transform.to_timed_tl ~profile:l1.Level1.profile ~hw:[] g in
  let slow = (Transform.evaluate d).Level2.latency_ns in
  let d2 = Transform.move_to_hw d "DBL" in
  let fast = (Transform.evaluate d2).Level2.latency_ns in
  check_bool "hw move speeds up" true (fast < slow);
  let d3 = Transform.move_to_sw d2 "DBL" in
  check "round trip restores latency" slow
    (Transform.evaluate d3).Level2.latency_ns;
  check_bool "speedup factor > 1" true
    (Transform.speedup_of_moving_to_hw d "DBL" > 1.)

(* --- Explore --- *)

let explore_pareto () =
  let points =
    [
      { Explore.mapping = []; label = "a"; latency_ns = 10; bus_busy_ns = 0;
        bus_utilisation = 0.; bitstream_bytes = 0; area = 100; energy_proxy = 1. };
      { Explore.mapping = []; label = "b"; latency_ns = 20; bus_busy_ns = 0;
        bus_utilisation = 0.; bitstream_bytes = 0; area = 50; energy_proxy = 1. };
      (* dominated by "a": *)
      { Explore.mapping = []; label = "c"; latency_ns = 15; bus_busy_ns = 0;
        bus_utilisation = 0.; bitstream_bytes = 0; area = 120; energy_proxy = 2. };
    ]
  in
  Alcotest.(check (list string)) "pareto" [ "a"; "b" ]
    (List.map (fun p -> p.Explore.label) (Explore.pareto points))

let explore_sweep_monotone_latency () =
  let grades =
    Explore.sweep_hw_sets ~profile:!!(smoke.level1).Level1.profile
      ~pinned_sw:Face_app.pinned_sw
      ~max_hw:4 !!(smoke.graph)
  in
  check "five grades" 5 (List.length grades);
  let latencies = List.map (fun gr -> gr.Explore.latency_ns) grades in
  check_bool "more HW never slower" true
    (List.for_all2 ( >= ) latencies (List.tl latencies @ [ 0 ]))

let level2_capacity_effect_on_latency () =
  (* larger channel capacity can only help (more pipeline slack) *)
  let g = tiny_graph ~frames:8 () in
  let mapping = Mapping.move (Mapping.all_sw g) "DBL" Mapping.Hw in
  let latency cap =
    (Level2.run
       ~config:
         { Level3.default_config.Level3.level2 with Level3.fifo_capacity = cap }
       g mapping)
      .Level2.latency_ns
  in
  check_bool "capacity monotone" true (latency 4 <= latency 1)

let level2_reports_occupancy () =
  let g = tiny_graph () in
  let r = Level2.run g (Mapping.move (Mapping.all_sw g) "DBL" Mapping.Hw) in
  match List.assoc_opt "a" r.Level2.channel_occupancy with
  | Some o ->
      check "puts" 3 o.Sim.Fifo.puts;
      check "gets" 3 o.Sim.Fifo.gets;
      check_bool "bounded occupancy" true (o.Sim.Fifo.max_occupancy <= 2)
  | None -> Alcotest.fail "channel 'a' must be reported"

let level3_bus_wait_under_contention () =
  (* HW tasks and bitstream downloads share the bus: the report must
     account waits or busy time for multiple masters *)
  let r = !!(smoke.level3) in
  let masters = r.Level3.bus_report.Symbad_tlm.Bus.per_master in
  check_bool "several masters" true (List.length masters >= 3);
  check_bool "cpu among masters" true (List.mem_assoc "cpu" masters)

let explore_grades_have_bitstream_only_at_level3 () =
  let g = !!(smoke.graph) in
  let g2 = Explore.grade ~label:"l2" g !!(smoke.mapping2) in
  check "no bitstream at level 2" 0 g2.Explore.bitstream_bytes;
  let g3 = Explore.grade ~label:"l3" g !!(smoke.mapping3) in
  check_bool "bitstream at level 3" true (g3.Explore.bitstream_bytes > 0)

(* The graded area is the simulated platform's: [config.task_area]
   sizes the hardwired modules and, twice over, the largest FPGA
   context (DISTANCE and ROOT each fill one at level 3). *)
let explore_area_reads_config () =
  let g = !!(smoke.graph) in
  let task_area t = 10 + String.length t in
  let config = { Level3.default_config with Level3.task_area } in
  let hw_area m =
    List.fold_left (fun a t -> a + task_area t) 0 (Mapping.hw_tasks m)
  in
  let m2 = !!(smoke.mapping2) and m3 = !!(smoke.mapping3) in
  let area m = (Explore.grade ~config ~label:"area" g m).Explore.area in
  check_bool "level 2 has HW modules" true (Mapping.hw_tasks m2 <> []);
  check "level-2 area" (hw_area m2) (area m2);
  check "level-3 area"
    (hw_area m3 + (2 * max (task_area "DISTANCE") (task_area "ROOT")))
    (area m3);
  check_bool "not the default areas" true
    (area m2 <> (Explore.grade ~label:"area" g m2).Explore.area)

(* qcheck: on random linear pipelines with random mappings, all three
   refinement levels compute identical data streams. *)
let gen_pipeline_case =
  QCheck.Gen.(
    let* stages = 1 -- 4 in
    let* frames = 1 -- 4 in
    let* ops = list_repeat stages (0 -- 2) in
    let* mapping_bits = list_repeat stages (0 -- 2) in
    let* capacity = 1 -- 3 in
    return (frames, ops, mapping_bits, capacity))

let build_pipeline frames ops =
  let source =
    Task_graph.source ~name:"SRC" ~outputs:[ "c0" ] ~work:5 (fun i ->
        if i >= frames then None else Some [ Token.Num (i * 17) ])
  in
  let stage i op =
    let f n =
      match op with 0 -> n + 3 | 1 -> n * 2 | _ -> (n * n) + 1
    in
    Task_graph.transform
      ~name:(Printf.sprintf "T%d" i)
      ~inputs:[ Printf.sprintf "c%d" i ]
      ~outputs:[ Printf.sprintf "c%d" (i + 1) ]
      ~work:(fun _ -> 3 + (2 * i))
      (function [ Token.Num n ] -> [ Token.Num (f n) ] | _ -> assert false)
  in
  let tasks = source :: List.mapi stage ops in
  Task_graph.make ~name:"rand_pipe" ~tasks
    ~sinks:[ Printf.sprintf "c%d" (List.length ops) ]

let qcheck_levels_agree_on_random_pipelines =
  QCheck.Test.make ~name:"levels 1-3 compute identical data" ~count:60
    (QCheck.make gen_pipeline_case)
    (fun (frames, ops, mapping_bits, capacity) ->
      let g = build_pipeline frames ops in
      let mapping =
        ("SRC", Mapping.Sw)
        :: List.mapi
             (fun i b ->
               ( Printf.sprintf "T%d" i,
                 match b with
                 | 0 -> Mapping.Sw
                 | 1 -> Mapping.Hw
                 | _ -> Mapping.Fpga "ctx" ))
             mapping_bits
      in
      let mapping2 =
        List.map
          (fun (t, m) -> (t, if m = Mapping.Fpga "ctx" then Mapping.Hw else m))
          mapping
      in
      let l1 = Level1.run g in
      let config =
        { Level3.default_config.Level3.level2 with
          Level3.fifo_capacity = capacity }
      in
      let l2 = Level2.run ~config g mapping2 in
      let l3 =
        Level3.run
          ~config:
            { Level3.default_config with
              Level3.level2 = config;
              fpga_capacity = 4000 (* up to 4 stages in one context *) }
          g mapping
      in
      Sim.Trace.equal_data ~reference:l1.Level1.trace ~actual:l2.Level2.trace
      && Sim.Trace.equal_data ~reference:l2.Level2.trace ~actual:l3.Level3.trace)

(* --- Wrapper_gen (automated interface synthesis) --- *)

let wrapper_gen_verifies_both_depths () =
  List.iter
    (fun depth ->
      let spec = Wrapper_gen.make_spec ~depth () in
      let _, props, reports = Wrapper_gen.synthesize_and_verify spec in
      check_bool
        (Printf.sprintf "depth %d all proved" depth)
        true
        (Symbad_mc.Engine.all_proved reports);
      check_bool "several checkers" true (List.length props >= 6))
    [ 1; 2 ]

let wrapper_gen_checkers_complete () =
  (* the generated checkers leave no detectable fault uncovered *)
  let spec = Wrapper_gen.make_spec ~depth:2 () in
  let nl = Wrapper_gen.synthesize spec in
  let props = Wrapper_gen.checkers spec nl in
  let r = Symbad_pcc.Pcc.run ~depth:6 ~max_reg_bits:4 nl props in
  Alcotest.(check (float 0.001)) "pcc 100%" 1.0 r.Symbad_pcc.Pcc.coverage

let wrapper_gen_fifo_order () =
  (* words drain in arrival order through the depth-2 skid buffer *)
  let module H = Symbad_hdl in
  let spec = Wrapper_gen.make_spec ~depth:2 () in
  let nl = Wrapper_gen.synthesize spec in
  let sim = H.Simulator.create nl in
  let bv w v = H.Bitvec.make ~width:w v in
  let cycle ~req ~data ~take =
    let inputs =
      [ ("req", bv 1 req); ("data", bv 8 data); ("take", bv 1 take) ]
    in
    let valid = H.Bitvec.to_int (H.Simulator.output sim ~inputs "valid") in
    let out = H.Bitvec.to_int (H.Simulator.output sim ~inputs "out") in
    H.Simulator.step sim ~inputs;
    (valid, out)
  in
  (* push 11 then 22 back to back, no draining *)
  ignore (cycle ~req:1 ~data:11 ~take:0);
  ignore (cycle ~req:1 ~data:22 ~take:0);
  (* now drain: head must be 11, then 22 *)
  let v1, o1 = cycle ~req:0 ~data:0 ~take:1 in
  let v2, o2 = cycle ~req:0 ~data:0 ~take:1 in
  let v3, _ = cycle ~req:0 ~data:0 ~take:1 in
  check "valid 1" 1 v1;
  check "first out" 11 o1;
  check "valid 2" 1 v2;
  check "second out" 22 o2;
  check "drained" 0 v3

let wrapper_gen_checkers_catch_mutations () =
  (* every injected fault of the synthesised wrapper trips a checker *)
  let spec = Wrapper_gen.make_spec ~depth:1 () in
  let nl = Wrapper_gen.synthesize spec in
  let props = Wrapper_gen.checkers spec nl in
  let faults = Symbad_pcc.Fault.enumerate ~max_reg_bits:2 nl in
  let caught =
    List.for_all
      (fun f ->
        let mutant = Symbad_pcc.Fault.apply nl f in
        match Symbad_pcc.Miter.detectable ~depth:6 nl mutant with
        | `Undetectable_within _ -> true (* nothing to catch *)
        | `Resource_out -> false
        | `Detectable _ ->
            List.exists
              (fun p ->
                let module Session = Symbad_mc.Session in
                match Session.bmc (Session.create mutant p) ~depth:6 with
                | Session.Base_cex _ -> true
                | Session.Base_holds | Session.Base_unknown -> false)
              props)
      faults
  in
  check_bool "all mutations caught" true caught

let wrapper_gen_rejects_bad_spec () =
  check_bool "depth 3" true
    (try ignore (Wrapper_gen.make_spec ~depth:3 ()); false
     with Invalid_argument _ -> true);
  check_bool "width 0" true
    (try ignore (Wrapper_gen.make_spec ~data_width:0 ()); false
     with Invalid_argument _ -> true)

(* --- Flow --- *)

(* the flow run (level 4 included) is expensive: share it *)
let shared_flow () = (Lazy.force Flow_fixture.cold).Flow_fixture.report

let flow_smoke_all_passes () =
  let r = shared_flow () in
  check "four levels" 4 (List.length r.Flow.levels);
  check_bool "all verifications pass" true r.Flow.all_passed

let flow_markdown_report () =
  let r = shared_flow () in
  let md = Flow.to_markdown r in
  let contains needle =
    let nl = String.length needle and tl = String.length md in
    let rec go i = i + nl <= tl && (String.sub md i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "title" true (contains "# Symbad flow report");
  check_bool "level sections" true (contains "## Level 4");
  check_bool "verdict table" true (contains "| check | verdict | detail |");
  check_bool "overall" true (contains "ALL PASSED")

let flow_speed_ordering () =
  (* the paper's E1-E3 shape: untimed level 1 is the fastest to
     simulate; level 3 is slower than level 2 in simulated terms *)
  let r = shared_flow () in
  let find n = List.find (fun l -> l.Flow.level = n) r.Flow.levels in
  let l2 = find 2 and l3 = find 3 in
  match (l2.Flow.latency_ns, l3.Flow.latency_ns) with
  | Some a, Some b -> check_bool "reconfig costs latency" true (b > a)
  | _ -> Alcotest.fail "levels 2 and 3 report latency"

(* --- Level 4: the search trajectory ---

   The solver effort of each flow module's whole plan (lint, model
   checking and PCC; no cache, one lane), 310 solves, 3,138 conflicts
   and 601,921 propagations in all, as a traced cold flow counts them.
   Every verdict can stay while the encoding's clause order or the
   solver's decisions change the search, and either moves these
   counts. *)

let level4_search_trajectory () =
  let module Obs = Symbad_obs.Obs in
  let sat_counts m =
    Obs.reset ();
    Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.reset ())
      (fun () ->
        ignore (Level4.verify_module m);
        let metrics = Obs.metrics () in
        List.map
          (fun name ->
            Option.value ~default:0
              (Symbad_obs.Metrics.find_counter metrics name))
          [ "sat.solves"; "sat.conflicts"; "sat.propagations" ])
  in
  List.iter2
    (fun (m : Level4.rtl_module) (name, want) ->
      Alcotest.(check string) "module order" name m.Level4.module_name;
      Alcotest.(check (list int))
        (name ^ ": sat.solves, conflicts, propagations")
        want (sat_counts m))
    (Level4.modules ())
    [
      ("DISTANCE", [ 3; 65; 24_675 ]);
      ("ROOT", [ 191; 1_738; 498_248 ]);
      ("WRAPPER", [ 56; 277; 11_590 ]);
      ("ARGMIN", [ 50; 964; 65_288 ]);
      ("IFGEN", [ 10; 94; 2_120 ]);
    ]

(* --- Verdict.of_pcc under a budget --- *)

module Pcc = Symbad_pcc.Pcc

(* A synthetic PCC report with the given status counts. *)
let pcc_report ?(undetectable = 0) ~covered ~uncovered ~unresolved () =
  let statuses =
    List.concat
      [
        List.init covered (fun _ ->
            Pcc.Covered { property = "p"; witness = [] });
        List.init uncovered (fun _ -> Pcc.Uncovered);
        List.init undetectable (fun _ -> Pcc.Undetectable);
        List.init unresolved (fun _ -> Pcc.Unresolved);
      ]
  in
  let detectable = covered + uncovered in
  {
    Pcc.design = "SYN";
    properties = [ "p" ];
    faults =
      List.mapi
        (fun i status ->
          {
            Pcc.fault =
              Symbad_pcc.Fault.Reg_stuck { reg = "r"; bit = i; value = true };
            status;
          })
        statuses;
    detectable;
    covered;
    coverage =
      (if detectable = 0 then 1.
       else float_of_int covered /. float_of_int detectable);
  }

let check_pcc_verdict name ~passed ~outcome ~detail r =
  let v = Verdict.of_pcc r in
  check_bool (name ^ ": passed") passed v.Verdict.passed;
  Alcotest.(check string) (name ^ ": outcome") outcome
    (match v.Verdict.outcome with
    | Verdict.Coverage { hit; total } -> Printf.sprintf "%d/%d" hit total
    | o -> Verdict.outcome_label o);
  Alcotest.(check string) (name ^ ": detail") detail v.Verdict.detail

let of_pcc_bounds_unresolved () =
  (* no unresolved fault: the plain ratio, as every unlimited run *)
  check_pcc_verdict "resolved pass" ~passed:true ~outcome:"15/16"
    ~detail:"94% of 16 detectable faults"
    (pcc_report ~covered:15 ~uncovered:1 ~unresolved:0 ());
  check_pcc_verdict "resolved fail" ~passed:false ~outcome:"2/4"
    ~detail:"50% of 4 detectable faults"
    (pcc_report ~covered:2 ~uncovered:2 ~unresolved:0 ());
  (* WRAPPER under a 10k budget: 12 covered, 4 unresolved — even with
     all four uncovered the worst case sits exactly on the 75% gate *)
  check_pcc_verdict "worst case meets the gate" ~passed:true ~outcome:"12/16"
    ~detail:"at least 75% of 12 detectable + 4 unresolved faults"
    (pcc_report ~undetectable:2 ~covered:12 ~uncovered:0 ~unresolved:4 ());
  (* even with the unresolved fault covered, 6/16 misses the gate *)
  check_pcc_verdict "best case misses the gate" ~passed:false ~outcome:"5/16"
    ~detail:"at most 38% of 15 detectable + 1 unresolved faults"
    (pcc_report ~covered:5 ~uncovered:10 ~unresolved:1 ());
  (* 10..14 of 16: the gate lies in between *)
  check_pcc_verdict "gate between the bounds" ~passed:false
    ~outcome:"inconclusive"
    ~detail:"resource budget exhausted; 13/17 faults classified"
    (pcc_report ~undetectable:1 ~covered:10 ~uncovered:2 ~unresolved:4 ());
  (* 8/12 resolved fails alone, but 4 unresolved could lift it to 12/16:
     no longer a conclusive failure *)
  check_pcc_verdict "a resolved miss is not a failure" ~passed:false
    ~outcome:"inconclusive"
    ~detail:"resource budget exhausted; 12/16 faults classified"
    (pcc_report ~covered:8 ~uncovered:4 ~unresolved:4 ());
  check_pcc_verdict "nothing classified" ~passed:false ~outcome:"inconclusive"
    ~detail:"resource budget exhausted; 0/5 faults classified"
    (pcc_report ~covered:0 ~uncovered:0 ~unresolved:5 ())

let suite =
  [
    Alcotest.test_case "token bytes" `Quick token_bytes;
    Alcotest.test_case "PCC verdict bounds unresolved faults" `Quick
      of_pcc_bounds_unresolved;
    Alcotest.test_case "token digest" `Quick token_digest_stable;
    Alcotest.test_case "token digest strings" `Quick token_digest_strings;
    Alcotest.test_case "token accessors" `Quick token_accessors_reject;
    Alcotest.test_case "graph validation" `Quick graph_validation;
    Alcotest.test_case "graph topological order" `Quick graph_topological_order;
    Alcotest.test_case "level1 run + profile" `Quick level1_runs_and_profiles;
    Alcotest.test_case "level1 matches reference" `Quick
      level1_matches_reference;
    Alcotest.test_case "case study parts built once" `Quick case_study_parts;
    Alcotest.test_case "level2 preserves data" `Quick level2_preserves_data;
    Alcotest.test_case "level2 HW speedup" `Quick level2_hw_speedup;
    Alcotest.test_case "level2 bus only for crossings" `Quick
      level2_bus_only_for_crossings;
    Alcotest.test_case "level2 mapping validation" `Quick
      level2_rejects_fpga_and_hw_sources;
    Alcotest.test_case "level3 preserves data, costs time" `Quick
      level3_preserves_data_and_costs_time;
    Alcotest.test_case "level3 reconfiguration count" `Quick
      level3_reconfig_count;
    Alcotest.test_case "level3 single context loads once" `Quick
      level3_single_context_loads_once;
    Alcotest.test_case "level3 emits consistent SW" `Quick
      level3_emits_consistent_sw;
    Alcotest.test_case "level3 seeded bug found twice" `Quick
      level3_seeded_bug_detected_statically_and_dynamically;
    Alcotest.test_case "level3 unwinds blocked processes" `Quick
      level3_unwinds_blocked_processes;
    Alcotest.test_case "lpv bridge on face app" `Quick lpv_bridge_face_app;
    Alcotest.test_case "lpv bridge seeded deadlock" `Quick
      lpv_bridge_seeded_deadlock;
    Alcotest.test_case "lpv bridge fifo dimensioning" `Quick
      lpv_bridge_fifo_dimensioning;
    Alcotest.test_case "lpv bridge reads the platform" `Quick
      lpv_bridge_reads_platform;
    Alcotest.test_case "lpv bridge deadline verdicts" `Quick
      lpv_bridge_deadline_verdicts;
    Alcotest.test_case "transformations move modules" `Quick transform_moves;
    Alcotest.test_case "explore pareto filter" `Quick explore_pareto;
    Alcotest.test_case "explore sweep monotone" `Quick
      explore_sweep_monotone_latency;
    Alcotest.test_case "level2 capacity monotone" `Quick
      level2_capacity_effect_on_latency;
    Alcotest.test_case "level2 reports occupancy" `Quick
      level2_reports_occupancy;
    Alcotest.test_case "level3 bus masters" `Quick
      level3_bus_wait_under_contention;
    Alcotest.test_case "explore bitstream accounting" `Quick
      explore_grades_have_bitstream_only_at_level3;
    Alcotest.test_case "explore area reads the config" `Quick
      explore_area_reads_config;
    QCheck_alcotest.to_alcotest qcheck_levels_agree_on_random_pipelines;
    Alcotest.test_case "wrapper_gen verifies both depths" `Quick
      wrapper_gen_verifies_both_depths;
    Alcotest.test_case "wrapper_gen checkers complete (PCC)" `Quick
      wrapper_gen_checkers_complete;
    Alcotest.test_case "wrapper_gen FIFO order" `Quick wrapper_gen_fifo_order;
    Alcotest.test_case "wrapper_gen checkers catch mutations" `Quick
      wrapper_gen_checkers_catch_mutations;
    Alcotest.test_case "wrapper_gen spec validation" `Quick
      wrapper_gen_rejects_bad_spec;
    Alcotest.test_case "flow smoke: all pass" `Slow flow_smoke_all_passes;
    Alcotest.test_case "flow markdown report" `Slow flow_markdown_report;
    Alcotest.test_case "flow speed ordering" `Slow flow_speed_ordering;
    Alcotest.test_case "level4 search trajectory" `Quick
      level4_search_trajectory;
  ]
