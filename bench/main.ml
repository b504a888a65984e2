(* The experiment harness: regenerates every figure and quantitative
   claim of the paper's evaluation (see DESIGN.md section 4 for the
   experiment index and EXPERIMENTS.md for recorded results).  The exact
   determinism columns (campaigns, lint counts, governed verdict mixes)
   are golden files under test/golden/, checked by `dune runtest`;
   wall-clock figures are the benchmark's (perf/).

   Usage:  dune exec bench/main.exe *)

open Symbad_core
module Sim = Symbad_sim
module I = Symbad_image

let section id title =
  Format.printf "@.=== %s: %s ===@." id title

let host_time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* Shared setup: the case study on the default workload (the speed
   table builds a longer one). *)
let workload = Face_app.default_workload
let case_study = Face_app.case_study workload
let graph = Lazy.force case_study.graph
let profile = (Lazy.force case_study.level1).Level1.profile
let mapping2 = Lazy.force case_study.mapping2
let mapping3 = Lazy.force case_study.mapping3

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
  let db = Lazy.force case_study.database in
  Format.printf "%-8s %-10s %-10s@." "poses" "accuracy" "margin";
  List.iter
    (fun poses ->
      let r = I.Metrics.evaluate ~size:workload.Face_app.size ~poses db in
      Format.printf "%-8d %-10.1f %-10.1f@." poses (100. *. r.I.Metrics.accuracy)
        r.I.Metrics.mean_margin)
    [ 1; 3; 5 ];
  (* and the trace-comparison verification of the system model *)
  let reference = Lazy.force case_study.reference in
  let mism =
    Sim.Trace.compare_data ~reference
      ~actual:(Lazy.force case_study.level1).Level1.trace
  in
  Format.printf "level-1 model vs C reference model: %d mismatches over %d streams@."
    (List.length mism)
    (List.length (Sim.Trace.sources reference))

(* ---------------------------------------------------------------- *)
(* E1-E3: simulation speed per refinement level.                     *)

let speed_table () =
  section "E1-E3" "simulation speed per level (paper: <15s / ~200kHz / ~30kHz)";
  (* a longer run than the flow default, for stable host timings *)
  let cs =
    Face_app.case_study
      { workload with
        Face_app.frames =
          Face_app.camera_script ~identities:workload.Face_app.identities 24 }
  in
  ignore (Lazy.force cs.graph);
  let l1, t1 = host_time (fun () -> Lazy.force cs.level1) in
  ignore (Lazy.force cs.mapping3);
  let l2, t2 = host_time (fun () -> Lazy.force cs.level2) in
  let l3, t3 = host_time (fun () -> Lazy.force cs.level3) in
  let khz2 = Level3.simulation_speed_khz l2 in
  let khz3 = Level3.simulation_speed_khz l3 in
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
  let timing = Level3.default_config in
  let with_capacity fifo_capacity =
    { timing with Level3.level2 = { timing.Level3.level2 with fifo_capacity } }
  in
  Format.printf "%-10s %-18s@." "capacity" "min period (ns)";
  List.iter
    (fun cap ->
      let net =
        Lpv_bridge.net_of ~timing:(with_capacity cap) ~mapping:mapping2 ~profile
          graph
      in
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
        "deadline %8dns: met at capacity %d = %-5b  minimal capacity = %s@."
        deadline_ns timing.level2.fifo_capacity met
        (match dim with Some c -> string_of_int c | None -> "none"))
    [ 2_000_000; 1_000_000; 600_000 ]

(* ---------------------------------------------------------------- *)
(* E7: SymbC consistency.                                            *)

let e7_symbc () =
  section "E7" "SymbC reconfiguration consistency (level 3)";
  let l3 = Lazy.force case_study.level3 in
  let verdict, secs =
    host_time (fun () ->
        Symbad_symbc.Check.check l3.Level3.config_info
          l3.Level3.instrumented_sw)
  in
  Format.printf "generated SW:        %a (%.4fs)@."
    Symbad_symbc.Check.pp_verdict verdict secs;
  let buggy =
    Level3.instrumented_program ~omit_load_for:[ "ROOT" ] graph mapping3
  in
  let verdict, secs =
    host_time (fun () ->
        Symbad_symbc.Check.check l3.Level3.config_info buggy)
  in
  Format.printf "SW missing one load: %a (%.4fs)@."
    Symbad_symbc.Check.pp_verdict verdict secs

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
  let l3 = Lazy.force case_study.level3 in
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
  let merged =
    Level3.run
      ~config:{ Level3.default_config with Level3.fpga_capacity = 2000 }
      graph
      (Mapping.refine_to_fpga mapping2
         [ ("DISTANCE", "config_all"); ("ROOT", "config_all") ])
  in
  Format.printf
    "simulated: split contexts %dns / %d reconfigs;  single context %dns / %d reconfigs@."
    l3.Level3.latency_ns
    l3.Level3.fpga_stats.Symbad_fpga.Fpga.reconfigurations
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
        (Level3.simulation_speed_khz l3)
        secs)
    [ 4; 8; 64; 512 ];
  Format.printf
    "shape: finer download granularity = more simulation events, slower \
simulation@.and longer reconfiguration — the cost the paper's level 3 pays@."

(* ---------------------------------------------------------------- *)
(* A2: static vs reconfigurable implementation.                      *)

let a2_static_vs_reconfig () =
  section "A2" "static (first implementation) vs reconfigurable flow";
  let static =
    Explore.grade
      ~config:{ Level3.default_config with Level3.fpga_capacity = 2000 }
      ~label:"static" graph
      (Mapping.refine_to_fpga mapping2
         [ ("DISTANCE", "config_all"); ("ROOT", "config_all") ])
  in
  let reconf = Explore.grade ~label:"reconfig" graph mapping3 in
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
    (Explore.sweep_hw_sets ~profile ~pinned_sw:Face_app.pinned_sw
       ~max_hw:6 graph)

let () =
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
  a3_download_granularity ();
  Format.printf "@.done.@."
