(* The experiment harness: regenerates every figure and quantitative
   claim of the paper's evaluation (see DESIGN.md section 4 for the
   experiment index and EXPERIMENTS.md for recorded results), then runs
   one Bechamel micro-benchmark per experiment.

   Usage:  dune exec bench/main.exe            (everything)
           dune exec bench/main.exe -- tables  (only the tables)
           dune exec bench/main.exe -- micro   (only the micro-benches)
           dune exec bench/main.exe -- guard   (telemetry smoke guard) *)

open Symbad_core
module Sim = Symbad_sim
module I = Symbad_image

let section id title =
  Format.printf "@.=== %s: %s ===@." id title

let host_time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* Shared setup: the case-study application at two scales. *)
let workload = Face_app.default_workload
let graph = Face_app.graph workload
let reference = Face_app.reference_trace workload
let level1_result = Level1.run graph
let profile = level1_result.Level1.profile
let mapping2 = Face_app.level2_mapping ~profile graph
let mapping3 = Mapping.refine_to_fpga mapping2 Face_app.level3_refinement

let bus_period = Level2.default_config.Level2.bus_period_ns

(* ---------------------------------------------------------------- *)
(* F1: Figure 1 — the full four-level flow with all verifications.   *)

let f1_flow () =
  section "F1" "the Symbad flow end to end (Figure 1)";
  let report, secs = host_time (fun () -> Flow.run ~workload ()) in
  Format.printf "%a" Flow.pp report;
  Format.printf "flow host time: %.1fs@." secs

(* ---------------------------------------------------------------- *)
(* F2: Figure 2 — the face recognition system and its quality.       *)

let f2_recognition () =
  section "F2" "face recognition quality (Figure 2 system)";
  let db = I.Pipeline.enroll ~size:workload.Face_app.size
      ~identities:workload.Face_app.identities () in
  Format.printf "%-8s %-10s %-10s@." "poses" "accuracy" "margin";
  List.iter
    (fun poses ->
      let r = I.Metrics.evaluate ~size:workload.Face_app.size ~poses db in
      Format.printf "%-8d %-10.1f %-10.1f@." poses (100. *. r.I.Metrics.accuracy)
        r.I.Metrics.mean_margin)
    [ 1; 3; 5 ];
  (* and the trace-comparison verification of the system model *)
  let mism =
    Sim.Trace.compare_data ~reference ~actual:level1_result.Level1.trace
  in
  Format.printf "level-1 model vs C reference model: %d mismatches over %d streams@."
    (List.length mism)
    (List.length (Sim.Trace.sources reference))

(* ---------------------------------------------------------------- *)
(* E1-E3: simulation speed per refinement level.                     *)

let speed_table () =
  section "E1-E3" "simulation speed per level (paper: <15s / ~200kHz / ~30kHz)";
  (* a longer run than the flow default, for stable host timings *)
  let w =
    { Face_app.default_workload with
      Face_app.frames = List.init 24 (fun i -> (i * 2 mod 20, 1 + (i mod 4))) }
  in
  let g = Face_app.graph w in
  let l1, t1 = host_time (fun () -> Level1.run g) in
  let m2 = Face_app.level2_mapping ~profile:l1.Level1.profile g in
  let m3 = Mapping.refine_to_fpga m2 Face_app.level3_refinement in
  let l2, t2 = host_time (fun () -> Level2.run g m2) in
  let l3, t3 = host_time (fun () -> Level3.run g m3) in
  let khz2 = Level2.simulation_speed_khz ~bus_period_ns:bus_period l2 in
  let khz3 = Level3.simulation_speed_khz ~bus_period_ns:bus_period l3 in
  let ev2 = l2.Level2.kernel_stats.Sim.Kernel.events in
  let ev3 = l3.Level3.kernel_stats.Sim.Kernel.events in
  Format.printf "%-28s %-8s %-12s %-13s %-10s@." "level" "host s" "sim latency"
    "sim speed" "events";
  Format.printf "%-28s %-8.3f %-12s %-13s %-10d@." "1 untimed functional" t1
    "-" "-" l1.Level1.kernel_stats.Sim.Kernel.events;
  Format.printf "%-28s %-8.3f %-12d %-9.0f kHz %-10d@."
    "2 timed TL (CPU+AMBA)" t2 l2.Level2.latency_ns khz2 ev2;
  Format.printf "%-28s %-8.3f %-12d %-9.0f kHz %-10d@."
    "3 TL + reconfiguration" t3 l3.Level3.latency_ns khz3 ev3;
  Format.printf
    "shape checks: reconfiguration modelling multiplies simulation events by \
     %.0fx@."
    (float_of_int ev3 /. float_of_int ev2);
  Format.printf
    "  (the paper's 200kHz -> 30kHz drop is this event blow-up on their \
     testbed; on this host@.   the kernel absorbs it, leaving a %.2fx speed \
     drop and a %.2fx latency overhead, %dB of bitstream traffic)@."
    (khz2 /. khz3)
    (float_of_int l3.Level3.latency_ns /. float_of_int l2.Level2.latency_ns)
    l3.Level3.bus_report.Symbad_tlm.Bus.bitstream_bytes

(* ---------------------------------------------------------------- *)
(* E4: ATPG coverage — engines head to head.                         *)

let e4_atpg () =
  section "E4" "ATPG coverage: random vs genetic vs SAT (Laerte++)";
  Format.printf "%-10s %-8s %6s %7s %7s %7s %7s %7s@." "model" "engine"
    "tests" "stmt%" "branch%" "cond%" "bit%" "fault%";
  List.iter
    (fun m ->
      List.iter
        (fun (e : Symbad_atpg.Testbench.evaluation) ->
          let c = e.Symbad_atpg.Testbench.coverage in
          Format.printf "%-10s %-8s %6d %7.1f %7.1f %7.1f %7.1f %7.1f@."
            e.Symbad_atpg.Testbench.model e.Symbad_atpg.Testbench.engine
            e.Symbad_atpg.Testbench.tests
            (100. *. c.Symbad_atpg.Coverage.statement)
            (100. *. c.Symbad_atpg.Coverage.branch_)
            (100. *. c.Symbad_atpg.Coverage.condition)
            (100. *. c.Symbad_atpg.Coverage.bit)
            (100. *. e.Symbad_atpg.Testbench.fault_coverage))
        (Symbad_atpg.Testbench.compare_engines ~budget:48 m))
    (Symbad_atpg.Models.all ());
  (* the formal engine on the RTL views *)
  List.iter
    (fun (name, nl) ->
      let r, secs = host_time (fun () -> Symbad_atpg.Sat_engine.generate nl) in
      Format.printf "%-10s %-8s -> %a (%.2fs)@." name "sat"
        Symbad_atpg.Sat_engine.pp_report r secs)
    [
      ("DISTANCE", Symbad_hdl.Rtl_lib.distance_datapath ());
      ("FIFO", Symbad_hdl.Rtl_lib.fifo_ctrl ~addr_width:3 ());
      ("WRAPPER", Symbad_hdl.Rtl_lib.handshake_wrapper ());
    ]

(* ---------------------------------------------------------------- *)
(* E5: LPV deadlock hunting.                                         *)

let e5_lpv_deadlock () =
  section "E5" "LPV deadlock freeness (level 1)";
  let correct, secs = host_time (fun () -> Lpv_bridge.check_deadlock graph) in
  Format.printf "%-34s %a (%.4fs)@." "face recognition (correct)"
    Symbad_lpv.Deadlock.pp_verdict correct secs;
  let buggy, secs =
    host_time (fun () ->
        Lpv_bridge.check_deadlock
          ~extra_channels:[ ("ack", "WINNER", "CAMERA", 0) ]
          graph)
  in
  Format.printf "%-34s %a (%.4fs)@." "seeded unprimed feedback loop"
    Symbad_lpv.Deadlock.pp_verdict buggy secs;
  let fixed, _ =
    host_time (fun () ->
        Lpv_bridge.check_deadlock
          ~extra_channels:[ ("ack", "WINNER", "CAMERA", 1) ]
          graph)
  in
  Format.printf "%-34s %a@." "same loop primed with one token"
    Symbad_lpv.Deadlock.pp_verdict fixed

(* ---------------------------------------------------------------- *)
(* E6: LPV real-time properties.                                     *)

let e6_lpv_timing () =
  section "E6" "LPV timing: deadline achievement and FIFO dimensioning";
  let timing = Lpv_bridge.default_timing in
  Format.printf "%-10s %-18s@." "capacity" "min period (ns)";
  List.iter
    (fun cap ->
      let net = Lpv_bridge.net_of ~capacity:cap ~timing ~mapping:mapping2 ~profile graph in
      match Symbad_lpv.Timing.min_cycle_ratio net with
      | Symbad_lpv.Timing.Period p ->
          Format.printf "%-10d %-18.0f@." cap (Symbad_lpv.Rat.to_float p)
      | Symbad_lpv.Timing.Unschedulable why
      | Symbad_lpv.Timing.Not_analyzable why ->
          Format.printf "%-10d unschedulable (%s)@." cap why)
    [ 1; 2; 4; 8 ];
  List.iter
    (fun deadline_ns ->
      let _, met =
        Lpv_bridge.check_deadline ~deadline_ns ~timing ~mapping:mapping2
          ~profile graph
      in
      let dim =
        Lpv_bridge.dimension_fifos ~deadline_ns ~timing ~mapping:mapping2
          ~profile graph
      in
      Format.printf
        "deadline %8dns: met at capacity 2 = %-5b  minimal capacity = %s@."
        deadline_ns met
        (match dim with Some c -> string_of_int c | None -> "none"))
    [ 2_000_000; 1_000_000; 600_000 ]

(* ---------------------------------------------------------------- *)
(* E7: SymbC consistency.                                            *)

let e7_symbc () =
  section "E7" "SymbC reconfiguration consistency (level 3)";
  let l3 = Level3.run graph mapping3 in
  let verdict, secs =
    host_time (fun () ->
        Symbad_symbc.Check.check l3.Level3.config_info
          l3.Level3.instrumented_sw)
  in
  Format.printf "generated SW:        %a (%.4fs)@."
    Symbad_symbc.Check.pp_verdict verdict secs;
  let schedule =
    List.filter_map
      (fun (t : Task_graph.task) ->
        match Mapping.target_of mapping3 t.Task_graph.name with
        | Mapping.Sw | Mapping.Fpga _ -> Some t.Task_graph.name
        | Mapping.Hw -> None)
      (Task_graph.topological_order graph)
  in
  let buggy =
    Level3.instrumented_program ~omit_load_for:[ "ROOT" ] schedule mapping3
  in
  let verdict, secs =
    host_time (fun () ->
        Symbad_symbc.Check.check l3.Level3.config_info buggy)
  in
  Format.printf "SW missing one load: %a (%.4fs)@."
    Symbad_symbc.Check.pp_verdict verdict secs;
  (* the abstract-interpretation engine agrees with the product check *)
  Format.printf "absint cross-check:  good %a / buggy %a@."
    Symbad_symbc.Absint.pp_verdict
    (Symbad_symbc.Absint.analyze l3.Level3.config_info
       l3.Level3.instrumented_sw)
    Symbad_symbc.Absint.pp_verdict
    (Symbad_symbc.Absint.analyze l3.Level3.config_info buggy)

(* ---------------------------------------------------------------- *)
(* E8: model checking + property coverage.                           *)

(* The FIFO-controller property plans of the E8 refinement story. *)
let fifo_property_plans fifo =
  let module E = Symbad_hdl.Expr in
  let module P = Symbad_mc.Prop in
  let weak =
    [ P.make ~name:"not_full_and_empty"
        (E.not_ (E.and_ (P.output fifo "full") (P.output fifo "empty"))) ]
  in
  let push_ok = E.and_ (E.input "push") (E.not_ (P.output fifo "full")) in
  let pop_ok = E.and_ (E.input "pop") (E.not_ (P.output fifo "empty")) in
  let delta = E.sub (P.next (E.reg "count")) (E.reg "count") in
  let strong =
    weak
    @ [
        P.make ~name:"count_le_depth" (E.ule (E.reg "count") (E.const ~width:3 4));
        P.make_step ~name:"push_increments"
          (P.implies (E.and_ push_ok (E.not_ pop_ok))
             (E.eq delta (E.const ~width:3 1)));
        P.make_step ~name:"pop_decrements"
          (P.implies (E.and_ pop_ok (E.not_ push_ok))
             (E.eq delta (E.const ~width:3 7)));
        P.make_step ~name:"idle_holds"
          (P.implies (E.eq push_ok pop_ok) (E.eq delta (E.const ~width:3 0)));
      ]
  in
  (weak, strong)

let e8_mc_pcc () =
  section "E8" "model checking and PCC completeness (level 4)";
  let l4, secs = host_time (fun () -> Level4.run ()) in
  Format.printf "%a" Level4.pp l4;
  Format.printf "level-4 host time: %.1fs@." secs;
  (* the PCC refinement story: initial (weak) plan vs refined plan *)
  let fifo = Symbad_hdl.Rtl_lib.fifo_ctrl ~addr_width:2 () in
  let weak, strong = fifo_property_plans fifo in
  Format.printf "PCC refinement loop on the FIFO controller:@.";
  List.iter
    (fun (label, props) ->
      let r = Symbad_pcc.Pcc.run ~depth:8 fifo props in
      Format.printf "  %-22s %d properties -> %.0f%% of %d detectable faults@."
        label (List.length props)
        (100. *. r.Symbad_pcc.Pcc.coverage)
        r.Symbad_pcc.Pcc.detectable)
    [ ("initial plan", weak); ("refined plan", strong) ]

(* ---------------------------------------------------------------- *)
(* A1: context-partition ablation.                                   *)

let a1_context_ablation () =
  section "A1" "context partition tuning (reconfigurations vs partition)";
  let l3 = Level3.run graph mapping3 in
  let calls = l3.Level3.call_sequence in
  let resources =
    [
      Symbad_fpga.Resource.algorithm ~area:900 "DISTANCE";
      Symbad_fpga.Resource.algorithm ~area:700 "ROOT";
    ]
  in
  Format.printf "dynamic call sequence: %d FPGA invocations@."
    (List.length calls);
  Format.printf "%-34s %8s %10s@." "partition" "reconfs" "bytes";
  List.iter
    (fun (e : Symbad_fpga.Placement.evaluation) ->
      Format.printf "%-34s %8d %10d@."
        (Fmt.str "%a" Symbad_fpga.Placement.pp_partition
           e.Symbad_fpga.Placement.partition)
        e.Symbad_fpga.Placement.reconfigurations
        e.Symbad_fpga.Placement.bitstream_bytes)
    (Symbad_fpga.Placement.sweep ~capacity:1700 ~max_contexts:2 ~calls resources);
  (* and the simulated effect of the two interesting partitions *)
  let split = Level3.run graph mapping3 in
  let merged =
    Level3.run
      ~config:{ Level3.default_config with Level3.fpga_capacity = 2000 }
      graph
      (Mapping.refine_to_fpga mapping2
         [ ("DISTANCE", "config_all"); ("ROOT", "config_all") ])
  in
  Format.printf
    "simulated: split contexts %dns / %d reconfigs;  single context %dns / %d reconfigs@."
    split.Level3.latency_ns
    split.Level3.fpga_stats.Symbad_fpga.Fpga.reconfigurations
    merged.Level3.latency_ns
    merged.Level3.fpga_stats.Symbad_fpga.Fpga.reconfigurations

(* ---------------------------------------------------------------- *)
(* A3: bitstream download granularity (PIO vs DMA ablation).         *)

let a3_download_granularity () =
  section "A3"
    "bitstream download granularity: programmed I/O vs DMA-style bursts";
  Format.printf "%-14s %10s %12s %12s %10s@." "burst bytes" "events"
    "latency ns" "sim kHz" "host s";
  List.iter
    (fun burst ->
      let l3, secs =
        host_time (fun () ->
            Level3.run
              ~config:
                { Level3.default_config with Level3.fpga_burst_bytes = burst }
              graph mapping3)
      in
      Format.printf "%-14d %10d %12d %12.0f %10.3f@." burst
        l3.Level3.kernel_stats.Sim.Kernel.events l3.Level3.latency_ns
        (Level3.simulation_speed_khz ~bus_period_ns:bus_period l3)
        secs)
    [ 4; 8; 64; 512 ];
  Format.printf
    "shape: finer download granularity = more simulation events, slower \
simulation@.and longer reconfiguration — the cost the paper's level 3 pays@."

(* ---------------------------------------------------------------- *)
(* A2: static vs reconfigurable implementation.                      *)

let a2_static_vs_reconfig () =
  section "A2" "static (first implementation) vs reconfigurable flow";
  let task_area = Level3.default_task_area in
  let static =
    Explore.grade_level3
      ~config:{ Level3.default_config with Level3.fpga_capacity = 2000 }
      ~task_area ~label:"static" graph
      (Mapping.refine_to_fpga mapping2
         [ ("DISTANCE", "config_all"); ("ROOT", "config_all") ])
  in
  let reconf = Explore.grade_level3 ~task_area ~label:"reconfig" graph mapping3 in
  Format.printf "%a@.%a@." Explore.pp_grade static Explore.pp_grade reconf;
  Format.printf
    "shape: static faster (%.2fx) but larger (+%.0f%% area); reconfigurable \
     trades latency for silicon@."
    (float_of_int reconf.Explore.latency_ns /. float_of_int static.Explore.latency_ns)
    (100.
    *. (float_of_int (static.Explore.area - reconf.Explore.area)
       /. float_of_int reconf.Explore.area));
  (* the architecture-exploration sweep behind the choice *)
  Format.printf "@.HW-set sweep (level 2):@.";
  List.iter
    (fun g -> Format.printf "  %a@." Explore.pp_grade g)
    (Explore.sweep_hw_sets ~task_area ~profile ~pinned_sw:Face_app.pinned_sw
       ~max_hw:6 graph)

(* ---------------------------------------------------------------- *)
(* INC: incremental sessions + the content-addressed verdict cache —  *)
(* what a warm cache buys on the level-4 portfolio.                   *)
(* `dune exec bench/main.exe -- inc [FILE]` writes the figures as     *)
(* JSON (the committed BENCH_inc.json baseline; host seconds are      *)
(* informative, the all_cached/identical flags are the checked part). *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path

let inc out =
  let module Json = Symbad_obs.Json in
  let module Cache = Symbad_cache.Cache in
  section "INC" "incremental verification: cold vs warm verdict cache (level 4)";
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "symbad_bench_inc_%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cache = Cache.create ~dir () in
  let cold, cold_s = wall (fun () -> Level4.run ~cache ()) in
  let warm, warm_s = wall (fun () -> Level4.run ~cache ()) in
  (* warm must reproduce the cold verdicts exactly, modulo the cached
     marker and host timing *)
  let norm (r : Level4.result) =
    List.map
      (fun m ->
        ( m.Level4.module_name,
          List.map
            (fun v -> { v with Verdict.cached = false; Verdict.host_seconds = 0. })
            (Level4.module_verdicts m) ))
      r.Level4.modules
  in
  let identical = norm cold = norm warm in
  let all_cached = Level4.all_cached warm in
  Format.printf
    "level4 cold %7.2fs (%d stored)   warm %7.2fs (%d hits)   speedup %.0fx   \
     %s%s@."
    cold_s (Cache.stores cache) warm_s (Cache.hits cache)
    (cold_s /. Float.max warm_s 1e-9)
    (if all_cached then "all cached" else "NOT ALL CACHED")
    (if identical then ", identical verdicts" else ", VERDICTS DIFFER");
  let json =
    Json.to_string
      (Json.Obj
         [
           ( "level4_cold",
             Json.Obj
               [
                 ("seconds", Json.Float cold_s);
                 ("stores", Json.Int (Cache.stores cache));
               ] );
           ( "level4_warm",
             Json.Obj
               [
                 ("seconds", Json.Float warm_s);
                 ("hits", Json.Int (Cache.hits cache));
                 ("all_cached", Json.Bool all_cached);
                 ("identical", Json.Bool identical);
               ] );
           ("speedup_warm", Json.Float (cold_s /. Float.max warm_s 1e-9));
         ])
  in
  match out with
  | Some path ->
      let oc = open_out path in
      output_string oc json;
      output_string oc "\n";
      close_out oc;
      Format.printf "baseline written to %s@." path
  | None -> Format.printf "%s@." json

(* ---------------------------------------------------------------- *)
(* GOV: resource-governed verification — what a deadline buys.        *)
(* Sweeps the flow under shrinking budgets and reports how run time   *)
(* and verdict mix degrade.  `dune exec bench/main.exe -- gov_deadline *)
(* [FILE]` also writes the figures as JSON (the committed             *)
(* BENCH_gov.json baseline).                                          *)

let gov_deadline out =
  let module Json = Symbad_obs.Json in
  let module Budget = Symbad_gov.Budget in
  section "GOV" "graceful degradation under deadline / budget pressure";
  let w = Face_app.smoke_workload in
  let wall_time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let verdict_mix report =
    List.fold_left
      (fun (p, f, i) l ->
        List.fold_left
          (fun (p, f, i) v ->
            match v.Verdict.outcome with
            | Verdict.Inconclusive _ -> (p, f, i + 1)
            | _ when v.Verdict.passed -> (p + 1, f, i)
            | _ -> (p, f + 1, i))
          (p, f, i) l.Flow.verifications)
      (0, 0, 0) report.Flow.levels
  in
  let measure label budget_of =
    (* budgets are built lazily: Budget.make anchors ~deadline_s to an
       absolute instant, so a deadline budget must be created just
       before its run, not when the sweep list is declared *)
    let budget = budget_of () in
    let report, secs = wall_time (fun () -> Flow.run ~workload:w ?budget ()) in
    let passed, failed, inconclusive = verdict_mix report in
    Format.printf "%-26s %8.2fs   passed %2d   failed %2d   inconclusive %2d@."
      label secs passed failed inconclusive;
    ( label,
      Json.Obj
        [
          ("seconds", Json.Float secs);
          ("passed", Json.Int passed);
          ("failed", Json.Int failed);
          ("inconclusive", Json.Int inconclusive);
        ] )
  in
  Format.printf "%-26s %9s   %s@." "budget" "wall" "verdicts";
  let logical n () = Some (Budget.make ~conflicts:n ~patterns:n ()) in
  let deadline s () = Some (Budget.make ~deadline_s:s ()) in
  let sweep =
    [
      ("unlimited", fun () -> None);
      (* logical allowances: deterministic degradation points *)
      ("conflicts+patterns 100k", logical 100_000);
      ("conflicts+patterns 10k", logical 10_000);
      ("conflicts+patterns 1k", logical 1_000);
      ("conflicts+patterns 0", logical 0);
      (* wall-clock deadlines: best-effort, the headline knob *)
      ("deadline 5s", deadline 5.0);
      ("deadline 0.5s", deadline 0.5);
      ("deadline 0s (instant)", deadline 0.0);
    ]
  in
  let rows = List.map (fun (label, budget_of) -> measure label budget_of) sweep in
  Format.printf
    "shape: shrinking budget trades verdicts for time — checks degrade to \
     inconclusive@.partial results instead of running long; the zero-budget \
     row is the floor cost of@.the flow itself.@.";
  let json = Json.to_string (Json.Obj rows) in
  match out with
  | Some path ->
      let oc = open_out path in
      output_string oc json;
      output_string oc "\n";
      close_out oc;
      Format.printf "baseline written to %s@." path
  | None -> Format.printf "%s@." json

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks: one Test.make per experiment id.       *)

let micro_benchmarks () =
  let open Bechamel in
  let open Toolkit in
  section "MICRO" "Bechamel micro-benchmarks (one per experiment)";
  let smoke = Face_app.smoke_workload in
  let smoke_graph = Face_app.graph smoke in
  let smoke_l1 = Level1.run smoke_graph in
  let smoke_m2 = Face_app.level2_mapping ~profile:smoke_l1.Level1.profile smoke_graph in
  let smoke_m3 = Mapping.refine_to_fpga smoke_m2 Face_app.level3_refinement in
  let smoke_db = I.Pipeline.enroll ~size:smoke.Face_app.size
      ~identities:smoke.Face_app.identities () in
  let fifo = Symbad_hdl.Rtl_lib.fifo_ctrl ~addr_width:2 () in
  let module E = Symbad_hdl.Expr in
  let module P = Symbad_mc.Prop in
  let fifo_prop =
    P.make ~name:"bound" (E.ule (E.reg "count") (E.const ~width:3 4))
  in
  let symbc_l3 = Level3.run smoke_graph smoke_m3 in
  let placement_calls = symbc_l3.Level3.call_sequence in
  let resources =
    [ Symbad_fpga.Resource.algorithm ~area:900 "DISTANCE";
      Symbad_fpga.Resource.algorithm ~area:700 "ROOT" ]
  in
  let static_m3 =
    Mapping.refine_to_fpga smoke_m2
      [ ("DISTANCE", "config_all"); ("ROOT", "config_all") ]
  in
  let static_cfg = { Level3.default_config with Level3.fpga_capacity = 2000 } in
  let tests =
    [
      (* F1: levels 1-3 of the flow, end to end *)
      Test.make ~name:"F1_flow_levels_1to3"
        (Staged.stage (fun () ->
             let l1 = Level1.run smoke_graph in
             let m2 = Face_app.level2_mapping ~profile:l1.Level1.profile smoke_graph in
             let _ = Level2.run smoke_graph m2 in
             Level3.run smoke_graph
               (Mapping.refine_to_fpga m2 Face_app.level3_refinement)));
      (* F2: one frame through the Figure 2 pipeline *)
      Test.make ~name:"F2_recognise_frame"
        (Staged.stage (fun () ->
             I.Pipeline.recognize smoke_db
               (I.Pipeline.camera ~size:smoke.Face_app.size ~identity:2 ~pose:1 ())));
      (* E1-E3: one simulation per level *)
      Test.make ~name:"E1_level1_sim"
        (Staged.stage (fun () -> Level1.run smoke_graph));
      Test.make ~name:"E2_level2_sim"
        (Staged.stage (fun () -> Level2.run smoke_graph smoke_m2));
      Test.make ~name:"E3_level3_sim"
        (Staged.stage (fun () -> Level3.run smoke_graph smoke_m3));
      (* E4: genetic ATPG on the ROOT model *)
      Test.make ~name:"E4_atpg_genetic_root"
        (Staged.stage (fun () ->
             Symbad_atpg.Genetic_engine.generate (Symbad_atpg.Models.root ())));
      (* E5: the deadlock LP *)
      Test.make ~name:"E5_lpv_deadlock"
        (Staged.stage (fun () -> Lpv_bridge.check_deadlock smoke_graph));
      (* E6: the min-cycle-ratio LP *)
      Test.make ~name:"E6_lpv_min_cycle_ratio"
        (Staged.stage (fun () ->
             Symbad_lpv.Timing.min_cycle_ratio
               (Lpv_bridge.net_of ~capacity:2 smoke_graph)));
      (* E7: the SymbC product check *)
      Test.make ~name:"E7_symbc_check"
        (Staged.stage (fun () ->
             Symbad_symbc.Check.check symbc_l3.Level3.config_info
               symbc_l3.Level3.instrumented_sw));
      (* E8: BMC on the fifo controller *)
      Test.make ~name:"E8_bmc_fifo_depth8"
        (Staged.stage (fun () ->
             Symbad_mc.Session.(bmc (create fifo fifo_prop) ~depth:8)));
      (* A1: the context-partition sweep *)
      Test.make ~name:"A1_placement_sweep"
        (Staged.stage (fun () ->
             Symbad_fpga.Placement.sweep ~capacity:1700 ~max_contexts:2
               ~calls:placement_calls resources));
      (* A2: the static (single-context) simulation *)
      Test.make ~name:"A2_level3_static_sim"
        (Staged.stage (fun () ->
             Level3.run ~config:static_cfg smoke_graph static_m3));
    ]
  in
  let grouped = Test.make_grouped ~name:"symbad" ~fmt:"%s/%s" tests in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some [ t ] -> (name, t) :: acc
        | Some _ | None -> (name, nan) :: acc)
      results []
    |> List.sort compare
  in
  Format.printf "%-36s %16s@." "benchmark" "time/run";
  let pp_ns fmt t =
    if t >= 1e9 then Fmt.pf fmt "%10.2f s " (t /. 1e9)
    else if t >= 1e6 then Fmt.pf fmt "%10.2f ms" (t /. 1e6)
    else if t >= 1e3 then Fmt.pf fmt "%10.2f us" (t /. 1e3)
    else Fmt.pf fmt "%10.0f ns" t
  in
  List.iter (fun (name, t) -> Format.printf "%-36s %a@." name pp_ns t) rows

(* ---------------------------------------------------------------- *)
(* Guard: the instrumentation stays wired.  Runs a small flow with    *)
(* telemetry on and fails if the key signals are missing — the smoke  *)
(* test CI runs so a refactor cannot silently sever the telemetry.    *)

let guard () =
  let module Obs = Symbad_obs.Obs in
  let module Tracer = Symbad_obs.Tracer in
  let module Metrics = Symbad_obs.Metrics in
  section "GUARD" "telemetry wiring smoke test";
  Obs.reset ();
  Obs.set_enabled true;
  let w =
    { Face_app.size = 32; identities = 6; frames = [ (0, 1); (3, 2) ] }
  in
  let report = Flow.run ~workload:w () in
  Obs.set_enabled false;
  let m = Obs.metrics () in
  let tracer = Obs.tracer () in
  let counter name = Option.value ~default:0 (Metrics.find_counter m name) in
  let failures = ref [] in
  let check what ok = if not ok then failures := what :: !failures in
  check "flow verdicts all passed" report.Flow.all_passed;
  check "sim.events_dispatched > 0" (counter "sim.events_dispatched" > 0);
  check "bus.transactions > 0" (counter "bus.transactions" > 0);
  check "bus.grant_wait_ns histogram populated"
    (match Metrics.find_histogram m "bus.grant_wait_ns" with
    | Some h -> Symbad_obs.Histogram.count h > 0
    | None -> false);
  check ">= 4 level spans"
    (List.length (Tracer.spans_with_cat tracer "level") >= 4);
  check "bus spans present" (Tracer.spans_with_cat tracer "bus" <> []);
  Format.printf "events=%d transactions=%d spans=%d@."
    (counter "sim.events_dispatched")
    (counter "bus.transactions")
    (Tracer.span_count tracer);
  (* two-domain trace-merge smoke: telemetry emitted on a worker domain
     must survive the buffer merge, land on its own lane track and stay
     parent-linked to the dispatch span.  The two jobs rendezvous (with
     a timeout escape) so both really run, one per domain. *)
  Obs.reset ();
  Obs.set_enabled true;
  let started = Atomic.make 0 in
  let lanes =
    Symbad_par.Par.with_pool ~jobs:2 (fun pool ->
        Symbad_par.Par.map ~label:"guard.rv" pool
          (fun _ ->
            Atomic.incr started;
            let t0 = Unix.gettimeofday () in
            while Atomic.get started < 2 && Unix.gettimeofday () -. t0 < 5. do
              Domain.cpu_relax ()
            done;
            Obs.incr_counter "guard.rv.work";
            Symbad_par.Par.current_lane ())
          [ 0; 1 ])
  in
  Obs.set_enabled false;
  let merged =
    Option.value ~default:0
      (Metrics.find_counter (Obs.metrics ()) "guard.rv.work")
  in
  let spans = Tracer.spans_with_cat (Obs.tracer ()) "par" in
  let dispatch =
    List.find_opt (fun s -> String.equal s.Tracer.track "par") spans
  in
  let job_spans =
    List.filter (fun s -> not (String.equal s.Tracer.track "par")) spans
  in
  check "rendezvous ran on two distinct lanes"
    (match lanes with [ a; b ] -> a <> b | _ -> false);
  check "worker-lane counter merged (2 of 2)" (merged = 2);
  check "no telemetry dropped" (Obs.dropped_count () = 0);
  check "job spans on two distinct lane tracks"
    (List.length
       (List.sort_uniq compare
          (List.map (fun s -> s.Tracer.track) job_spans))
    = 2);
  check "job spans parent-linked to dispatch"
    (match dispatch with
    | Some d ->
        job_spans <> []
        && List.for_all
             (fun s -> s.Tracer.parent = Some d.Tracer.id)
             job_spans
    | None -> false);
  Format.printf "trace-merge smoke: merged=%d lanes=%d@." merged
    (List.length (List.sort_uniq compare lanes));
  match !failures with
  | [] -> Format.printf "guard: telemetry wired.@."
  | fs ->
      List.iter (fun f -> Format.printf "guard FAILURE: %s@." f) fs;
      exit 1

(* ---------------------------------------------------------------- *)
(* RESIL: the dependability campaign — per-fault-kind detection and   *)
(* recovery rates on the smoke workload.                              *)
(* `dune exec bench/main.exe -- resil [FILE]` also writes the report  *)
(* as JSON (the committed BENCH_resil.json baseline; simulated-time   *)
(* figures only, so it is byte-stable across hosts and --jobs).       *)

let resil out =
  let module Campaign = Symbad_resil.Campaign in
  let module Json = Symbad_obs.Json in
  section "RESIL" "fault-injection campaign (smoke workload, seed 1)";
  let report =
    Symbad_par.Par.with_pool (fun pool -> Campaign.run ~pool ~seed:1 ())
  in
  Format.printf "%-16s %6s %8s %8s %9s %7s@." "kind" "trials" "injected"
    "detected" "recovered" "correct";
  List.iter
    (fun row ->
      Format.printf "%-16s %6d %8d %8d %9d %7d@." row.Campaign.row_kind
        row.Campaign.row_trials row.Campaign.row_injected
        row.Campaign.row_detected row.Campaign.row_recovered
        row.Campaign.row_correct)
    report.Campaign.per_kind;
  Format.printf "campaign %s (%d trials, %d skipped)@."
    (if report.Campaign.passed then "PASSED" else "FAILED")
    (List.length report.Campaign.outcomes)
    report.Campaign.skipped;
  let json = Json.to_string (Campaign.to_json report) in
  (match out with
  | Some path ->
      let oc = open_out path in
      output_string oc json;
      output_string oc "\n";
      close_out oc;
      Format.printf "baseline written to %s@." path
  | None -> Format.printf "%s@." json);
  if not report.Campaign.passed then exit 1

(* ---------------------------------------------------------------- *)
(* TMR: masked-fault mode vs scrubbing-only — the same campaign run   *)
(* in both operating modes, compared on fault-survival, masked        *)
(* trials, recovery-latency histogram and fabric area.                *)
(* `dune exec bench/main.exe -- tmr [FILE]` also writes the two       *)
(* reports plus the comparison as JSON (the committed BENCH_tmr.json  *)
(* baseline; the reports are simulated-time-only and byte-stable, the *)
(* `seconds` fields carry host wall times for the tolerance gate).    *)

let tmr_bench out =
  let module Campaign = Symbad_resil.Campaign in
  let module Json = Symbad_obs.Json in
  section "TMR" "masked (TMR + bus ECC) vs scrubbing-only, seed 1";
  let timed mode =
    let t0 = Unix.gettimeofday () in
    let r =
      Symbad_par.Par.with_pool (fun pool -> Campaign.run ~pool ~mode ~seed:1 ())
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let scrub, scrub_s = timed Campaign.Scrub in
  let tmr, tmr_s = timed Campaign.Tmr in
  print_string (Campaign.compare_modes_markdown ~scrub ~tmr);
  Format.printf "scrub %s in %.2fs, tmr %s in %.2fs@."
    (if scrub.Campaign.passed then "PASSED" else "FAILED")
    scrub_s
    (if tmr.Campaign.passed then "PASSED" else "FAILED")
    tmr_s;
  let json =
    Json.to_string
      (Json.Obj
         [
           ( "scrub",
             Json.Obj
               [
                 ("report", Campaign.to_json scrub);
                 ("seconds", Json.Float scrub_s);
               ] );
           ( "tmr",
             Json.Obj
               [
                 ("report", Campaign.to_json tmr);
                 ("seconds", Json.Float tmr_s);
               ] );
           ("comparison", Campaign.compare_modes ~scrub ~tmr);
         ])
  in
  (match out with
  | Some path ->
      let oc = open_out path in
      output_string oc json;
      output_string oc "\n";
      close_out oc;
      Format.printf "baseline written to %s@." path
  | None -> Format.printf "%s@." json);
  if not (scrub.Campaign.passed && tmr.Campaign.passed) then exit 1

(* ---------------------------------------------------------------- *)
(* LINT: the static-analysis pass — per-target diagnostic counts      *)
(* over the repo corpus plus rule throughput on the largest           *)
(* synthesised netlist.  `dune exec bench/main.exe -- lint [FILE]`    *)
(* also writes the figures as JSON (the committed BENCH_lint.json     *)
(* baseline; the per-target counts are deterministic, the throughput  *)
(* row carries host timings).                                         *)

let prop_pairs props =
  List.map (fun p -> (Symbad_mc.Prop.name p, Symbad_mc.Prop.formula p)) props

let lint_bench out =
  let module Lint = Symbad_lint.Lint in
  let module Json = Symbad_obs.Json in
  section "LINT" "static-analysis corpus counts and rule throughput";
  let wall_time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let l3 = Level3.run graph mapping3 in
  let row (r : Lint.report) =
    Format.printf "%-24s %d rules, %d errors, %d warnings@." r.Lint.target
      (List.length r.Lint.rules_run)
      (Lint.errors r) (Lint.warnings r);
    ( r.Lint.target,
      Json.Obj
        [
          ("rules", Json.Int (List.length r.Lint.rules_run));
          ("errors", Json.Int (Lint.errors r));
          ("warnings", Json.Int (Lint.warnings r));
        ] )
  in
  let targets =
    List.map
      (fun (m : Level4.rtl_module) ->
        row
          (Lint.run_netlist
             ~properties:(prop_pairs m.Level4.properties)
             m.Level4.netlist))
      (Level4.modules ())
    @ [
        (let nl = Symbad_resil.Recovery.netlist () in
         row
           (Lint.run_netlist
              ~properties:(prop_pairs (Symbad_resil.Recovery.properties nl))
              nl));
        row
          (Lint.run_program ~name:"instrumented software"
             l3.Level3.config_info l3.Level3.instrumented_sw);
        row (Lint.run_netlist Symbad_lint.Seeded.demo);
      ]
  in
  (* throughput: all seven netlist rules over the largest synthesised
     netlist in the repo, repeated for a stable figure *)
  let spec = Wrapper_gen.make_spec ~data_width:32 ~depth:2 () in
  let nl = Wrapper_gen.synthesize spec in
  let props = prop_pairs (Wrapper_gen.checkers spec nl) in
  let repeats = 50 in
  let (), secs =
    wall_time (fun () ->
        for _ = 1 to repeats do
          ignore (Lint.run_netlist ~properties:props nl)
        done)
  in
  let rules = List.length Lint.netlist_rule_ids * repeats in
  let per_sec = float_of_int rules /. secs in
  Format.printf
    "throughput: %d rule runs over %s (%d registers) in %.2fs = %.0f rules/s@."
    rules
    (Symbad_hdl.Netlist.name nl)
    (List.length (Symbad_hdl.Netlist.registers nl))
    secs per_sec;
  let json =
    Json.to_string
      (Json.Obj
         [
           ("targets", Json.Obj targets);
           ( "throughput",
             Json.Obj
               [
                 ("netlist", Json.Str (Symbad_hdl.Netlist.name nl));
                 ( "registers",
                   Json.Int (List.length (Symbad_hdl.Netlist.registers nl)) );
                 ("rule_runs", Json.Int rules);
                 ("seconds", Json.Float secs);
                 ("rules_per_second", Json.Float per_sec);
               ] );
         ])
  in
  match out with
  | Some path ->
      let oc = open_out path in
      output_string oc json;
      output_string oc "\n";
      close_out oc;
      Format.printf "baseline written to %s@." path
  | None -> Format.printf "%s@." json

(* ---------------------------------------------------------------- *)
(* Lint guard: the shipped corpus must stay diagnostic-free.  CI      *)
(* runs this via the @lint-guard alias: the recovery controller, one  *)
(* synthesised wrapper and the face-app reconfiguration program are   *)
(* linted and any diagnostic at all fails the build.                  *)

let lint_guard () =
  let module Lint = Symbad_lint.Lint in
  section "LINT-GUARD" "repo corpus stays diagnostic-free";
  let failures = ref [] in
  let check (r : Lint.report) =
    Format.printf "%a" Lint.pp r;
    if r.Lint.diagnostics <> [] then failures := r.Lint.target :: !failures
  in
  let recovery = Symbad_resil.Recovery.netlist () in
  (* net.range is suppressed on the recovery controller: its retry and
     no-op counters are bounded by the controller's own compare logic,
     which the interval domain cannot see (provable with --escalate) —
     the same documented suppression the lint test suite carries *)
  check
    (Lint.run_netlist ~suppress:[ "net.range" ]
       ~properties:(prop_pairs (Symbad_resil.Recovery.properties recovery))
       recovery);
  let spec = Wrapper_gen.make_spec ~data_width:8 ~depth:2 () in
  let wrapper = Wrapper_gen.synthesize spec in
  check
    (Lint.run_netlist
       ~properties:(prop_pairs (Wrapper_gen.checkers spec wrapper))
       wrapper);
  let l3 = Level3.run graph mapping3 in
  check
    (Lint.run_program ~name:"instrumented software" l3.Level3.config_info
       l3.Level3.instrumented_sw);
  match !failures with
  | [] -> Format.printf "lint-guard: corpus clean.@."
  | fs ->
      List.iter (fun f -> Format.printf "lint-guard FAILURE: %s@." f) fs;
      exit 1

(* ---------------------------------------------------------------- *)
(* Absint guard: the semantic rules stay wired, sub-second.  CI runs  *)
(* this via the @absint-guard alias: the abstract interpreter must    *)
(* reach a fixpoint on every corpus netlist, the seeded per-rule      *)
(* fixtures must each fire exactly their rule, and the escalation     *)
(* round-trip on the seeded netlist must promote exactly one warning  *)
(* to an error with a counterexample attached and discharge exactly   *)
(* one as proved.                                                     *)

let absint_guard () =
  let module Lint = Symbad_lint.Lint in
  let module D = Symbad_lint.Diagnostic in
  let module Absint = Symbad_lint.Netlist_absint in
  section "ABSINT-GUARD" "semantic-rule and escalation smoke test";
  let failures = ref [] in
  let check what ok =
    Format.printf "%-52s %s@." what (if ok then "ok" else "FAILED");
    if not ok then failures := what :: !failures
  in
  (* the whole corpus reaches a fixpoint with every register abstracted *)
  let corpus =
    List.map
      (fun (m : Level4.rtl_module) -> m.Level4.netlist)
      (Level4.modules ())
    @ [ Symbad_resil.Recovery.netlist () ]
  in
  List.iter
    (fun nl ->
      let name = Symbad_hdl.Netlist.name nl in
      check
        (Printf.sprintf "fixpoint: %s" name)
        (match Absint.analyze nl with
        | None -> false
        | Some a ->
            List.for_all
              (fun (r : Symbad_hdl.Netlist.register) ->
                Absint.reg_value a r.Symbad_hdl.Netlist.name <> None)
              (Symbad_hdl.Netlist.registers nl)))
    corpus;
  (* each semantic fixture fires exactly its seeded rule *)
  let semantic =
    [ "net.x-prop"; "net.range"; "net.unreachable-state"; "net.const-reg" ]
  in
  List.iter
    (fun (rule, nl) ->
      if List.mem rule semantic then
        let r = Lint.run_netlist ~rules:[ rule ] nl in
        check
          (Printf.sprintf "fires: %s" rule)
          (List.exists
             (fun (d : D.t) -> String.equal d.D.rule rule)
             r.Lint.diagnostics))
    Symbad_lint.Seeded.fixtures;
  (* the escalation round-trip: one disproved + promoted, one proved *)
  let before = Lint.run_netlist Symbad_lint.Seeded.escalation in
  let after =
    Lint.escalate Symbad_lint.Seeded.escalation before
  in
  let status s (d : D.t) =
    match d.D.discharged with Some g -> g.D.status = s | None -> false
  in
  let promoted =
    List.filter
      (fun (d : D.t) -> d.D.severity = D.Error && status D.Disproved d)
      after.Lint.diagnostics
  in
  let proved =
    List.filter
      (fun (d : D.t) -> d.D.severity = D.Info && status D.Proved d)
      after.Lint.diagnostics
  in
  check "escalation input: 2 warnings, 0 errors"
    (Lint.warnings before = 2 && Lint.errors before = 0);
  check "escalation: exactly one warning promoted to error"
    (List.length promoted = 1);
  check "escalation: the promoted error carries a counterexample"
    (match promoted with
    | [ d ] -> (
        match d.D.discharged with
        | Some g -> g.D.counterexample <> None
        | None -> false)
    | _ -> false);
  check "escalation: exactly one warning discharged as proved"
    (List.length proved = 1);
  check "escalation: no diagnostic dropped"
    (List.length after.Lint.diagnostics
    = List.length before.Lint.diagnostics);
  match !failures with
  | [] -> Format.printf "absint-guard: semantic rules wired.@."
  | fs ->
      List.iter (fun f -> Format.printf "absint-guard FAILURE: %s@." f) fs;
      exit 1

(* ---------------------------------------------------------------- *)
(* Fault guard: one injected-and-recovered flow, sub-second.  CI      *)
(* runs this via the @fault-guard alias: a bitstream SEU must be      *)
(* caught by the download CRC, re-downloaded, and the pipeline must   *)
(* still elect the fault-free WINNER.                                 *)

let fault_guard () =
  let module Campaign = Symbad_resil.Campaign in
  let module Fault = Symbad_resil.Fault in
  section "FAULT-GUARD" "injected-and-recovered smoke test";
  let report =
    Campaign.run ~kinds:[ Fault.Bitstream_seu ] ~trials_per_kind:1 ~seed:1 ()
  in
  List.iter
    (fun (o : Campaign.outcome) ->
      Format.printf "trial %d %-14s %-24s %s@." o.Campaign.trial
        o.Campaign.kind o.Campaign.injection o.Campaign.detail)
    report.Campaign.outcomes;
  if report.Campaign.passed then
    Format.printf "guard: fault injected, detected, recovered; winner intact.@."
  else begin
    Format.printf "guard FAILURE: %s@."
      (match Campaign.first_failure report with
      | Some o -> o.Campaign.detail
      | None -> "campaign inconclusive");
    exit 1
  end

(* ---------------------------------------------------------------- *)
(* TMR guard: the masked operating mode holds, sub-second.  CI runs   *)
(* this via the @tmr-guard alias: the voter's masking contract and    *)
(* the triplicated datapath's lock-step invariant must prove, the     *)
(* voter must lint clean, and a mini campaign in tmr mode must mask   *)
(* a configuration upset, a per-copy upset and a single-bit bus       *)
(* corruption at zero recovery latency.                               *)

let tmr_guard () =
  let module Masking = Symbad_resil.Masking in
  let module Campaign = Symbad_resil.Campaign in
  let module Fault = Symbad_resil.Fault in
  let module Lint = Symbad_lint.Lint in
  let module Tmr = Symbad_hdl.Tmr in
  section "TMR-GUARD" "voter proofs and masked campaign smoke test";
  let failures = ref [] in
  let proofs name reports =
    List.iter
      (fun r -> Format.printf "%a@." Symbad_mc.Engine.pp_report r)
      reports;
    if not (Masking.all_proved reports) then failures := name :: !failures
  in
  proofs "voter masking contract" (Masking.check_voter ());
  proofs "triplicated lock-step"
    (Masking.check_triplicated
       (Symbad_hdl.Rtl_lib.distance_datapath ~data_width:4 ~acc_width:8 ()));
  let voter = Tmr.voter ~width:8 () in
  let lint = Lint.run_netlist ~properties:(Tmr.voter_properties ()) voter in
  Format.printf "%a" Lint.pp lint;
  if lint.Lint.diagnostics <> [] then failures := "voter lint" :: !failures;
  let report =
    Campaign.run ~mode:Campaign.Tmr
      ~kinds:[ Fault.Config_upset; Fault.Ecc_single; Fault.Tmr_upset ]
      ~trials_per_kind:1 ~seed:1 ()
  in
  List.iter
    (fun (o : Campaign.outcome) ->
      Format.printf "trial %d %-14s %-28s masked=%b recovery=%dns %s@."
        o.Campaign.trial o.Campaign.kind o.Campaign.injection o.Campaign.masked
        o.Campaign.recovery_ns o.Campaign.detail;
      if
        (not o.Campaign.skipped)
        && (not (String.equal o.Campaign.kind "control"))
        && not (o.Campaign.masked && o.Campaign.recovery_ns = 0)
      then failures := ("unmasked trial: " ^ o.Campaign.kind) :: !failures)
    report.Campaign.outcomes;
  if not report.Campaign.passed then failures := "tmr campaign" :: !failures;
  match List.rev !failures with
  | [] ->
      Format.printf
        "guard: voter proved, lint clean, faults masked at zero latency.@."
  | fs ->
      List.iter (fun f -> Format.printf "guard FAILURE: %s@." f) fs;
      exit 1

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let tables () =
    f1_flow ();
    f2_recognition ();
    speed_table ();
    e4_atpg ();
    e5_lpv_deadlock ();
    e6_lpv_timing ();
    e7_symbc ();
    e8_mc_pcc ();
    a1_context_ablation ();
    a2_static_vs_reconfig ();
    a3_download_granularity ()
  in
  (match mode with
  | "tables" -> tables ()
  | "micro" -> micro_benchmarks ()
  | "guard" -> guard ()
  | "inc" ->
      inc (if Array.length Sys.argv > 2 then Some Sys.argv.(2) else None)
  | "gov_deadline" ->
      gov_deadline (if Array.length Sys.argv > 2 then Some Sys.argv.(2) else None)
  | "resil" ->
      resil (if Array.length Sys.argv > 2 then Some Sys.argv.(2) else None)
  | "fault_guard" -> fault_guard ()
  | "tmr" ->
      tmr_bench (if Array.length Sys.argv > 2 then Some Sys.argv.(2) else None)
  | "tmr_guard" -> tmr_guard ()
  | "lint" ->
      lint_bench (if Array.length Sys.argv > 2 then Some Sys.argv.(2) else None)
  | "lint_guard" -> lint_guard ()
  | "absint_guard" -> absint_guard ()
  | _ ->
      tables ();
      micro_benchmarks ());
  Format.printf "@.done.@."
