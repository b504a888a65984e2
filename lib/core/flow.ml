(* The complete Symbad design-and-verification flow (Figure 1).

   Runs the four levels in order on the face recognition case study, at
   each level performing the design step (refinement) and the
   verification steps the methodology prescribes, carrying every report
   forward.  The result is the machine-readable version of the paper's
   Section 4. *)

module Sim = Symbad_sim
module Obs = Symbad_obs.Obs
module Json = Symbad_obs.Json
module Gov = Symbad_gov.Gov
module Degrade = Symbad_gov.Degrade

type level_report = {
  level : int;
  title : string;
  host_seconds : float;
  latency_ns : int option;
  sim_speed_khz : float option;
  verifications : Verdict.t list;
}

type t = {
  workload : Face_app.workload;
  levels : level_report list;
  mapping : Mapping.t;  (* final (level-3) mapping *)
  all_passed : bool;
}

(* Time one step: a level's simulation or one of its verifications. *)
let timed f =
  let t0 = Sys.time () in
  let v = f () in
  (v, Sys.time () -. t0)

let compare_traces ~check ~reference ~actual =
  let mismatches, host_seconds =
    timed (fun () -> Sim.Trace.compare_data ~reference ~actual)
  in
  match mismatches with
  | [] ->
      Verdict.make ~name:check ~host_seconds
        ~detail:
          (Printf.sprintf "%d streams match"
             (List.length (Sim.Trace.sources actual)))
        Verdict.Proved
  | ms ->
      Verdict.make ~name:check ~host_seconds
        (Verdict.Disproved (Printf.sprintf "%d stream mismatches" (List.length ms)))

(* One "flow.verdict" event per verification: a failing check surfaces on
   the trace timeline at [Error] severity without grepping the report. *)
let emit_verdicts level verifications =
  if Obs.enabled () then
    List.iter
      (fun v ->
        Obs.event
          ~severity:
            (if v.Verdict.passed then Symbad_obs.Severity.Info
             else Symbad_obs.Severity.Error)
          ~args:
            [
              ("level", Json.Int level);
              ("check", Json.Str v.Verdict.name);
              ("outcome", Json.Str (Verdict.outcome_label v.Verdict.outcome));
              ("passed", Json.Bool v.Verdict.passed);
              ("detail", Json.Str v.Verdict.detail);
            ]
          "flow.verdict")
      verifications

(* Budget weights of the four levels: the heavy SAT/PCC work all lives
   at level 4, so it gets the lion's share of whatever remains. *)
let level_fractions = [ (1, 0.125); (2, 1. /. 7.); (3, 1. /. 6.) ]

(* A level whose governor is exhausted before any engine starts still
   gets an explicit verdict row — skipped work must never be silently
   absent from the report. *)
let entry_verdicts level g =
  match Gov.exhaustion g with
  | None -> []
  | Some reason ->
      [
        Verdict.make
          ~name:(Printf.sprintf "level %d entry gate" level)
          ~detail:"no engine started; the rows below report partial work only"
          (Verdict.Inconclusive
             (Printf.sprintf "governor: %s" (Degrade.reason_string reason)));
      ]

(* The four levels.  Each runs its design step and verifications under
   its governor share [g], reading the levels before it from the case
   study. *)

(* Level 1: functional model + functional verification. *)
let level1 ?pool ~seed (cs : Face_app.case_study) g =
  let l1, host_seconds = timed (fun () -> Lazy.force cs.level1) in
  (* the level's two governed checks get their shares up front *)
  let atpg_gov, lpv_gov =
    match Gov.split ~label:"checks" g 2 with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  let deadlock =
    let v, secs =
      timed (fun () ->
          Lpv_bridge.check_deadlock ~gov:lpv_gov (Lazy.force cs.graph))
    in
    Verdict.of_lpv_deadlock ~host_seconds:secs v
  in
  {
    level = 1;
    title = "system level specification (untimed TL)";
    host_seconds;
    latency_ns = None;
    sim_speed_khz = None;
    verifications =
      [
        compare_traces ~check:"trace match vs C reference model"
          ~reference:(Lazy.force cs.reference) ~actual:l1.Level1.trace;
        Engines.atpg ?pool ~gov:atpg_gov ~seed ();
        deadlock;
      ];
  }

(* Level 2: architecture mapping + timing verification. *)
let level2 (cs : Face_app.case_study) g =
  let graph = Lazy.force cs.graph and mapping = Lazy.force cs.mapping2 in
  let l2, host_seconds = timed (fun () -> Lazy.force cs.level2) in
  let profile = (Lazy.force cs.level1).Level1.profile in
  let deadline_ns = Face_app.deadline_ns in
  (* the platform the case study's level-2 run simulates *)
  let timing = Level3.default_config in
  let period, met =
    Lpv_bridge.check_deadline ~deadline_ns ~timing ~mapping ~profile ~gov:g
      graph
  in
  let fifo_dim =
    Lpv_bridge.dimension_fifos ~deadline_ns ~timing ~mapping ~profile ~gov:g
      graph
  in
  {
    level = 2;
    title = "architecture mapping (timed TL, CPU + AMBA)";
    host_seconds;
    latency_ns = Some l2.Level2.latency_ns;
    sim_speed_khz = Some (Level3.simulation_speed_khz l2);
    verifications =
      [
        compare_traces ~check:"trace match vs level 1"
          ~reference:(Lazy.force cs.level1).Level1.trace
          ~actual:l2.Level2.trace;
        Verdict.of_lpv_timing ~deadline_ns ~met period;
        (match (fifo_dim, Gov.exhaustion g) with
        | Some c, _ ->
            Verdict.make ~name:"LPV FIFO dimensioning"
              ~detail:(Printf.sprintf "minimal uniform capacity %d" c)
              Verdict.Proved
        | None, Some reason ->
            (* the capacity search was cut short, not exhausted *)
            Verdict.make ~name:"LPV FIFO dimensioning"
              (Verdict.Inconclusive
                 (Printf.sprintf "governor: %s" (Degrade.reason_string reason)))
        | None, None ->
            Verdict.make ~name:"LPV FIFO dimensioning"
              (Verdict.Disproved "no capacity meets the deadline"));
      ];
  }

(* Level 3: reconfigurable refinement + consistency. *)
let level3 ?pool (cs : Face_app.case_study) g =
  (* the refinement itself stays outside the level's host time *)
  ignore (Lazy.force cs.mapping3);
  let l3, host_seconds = timed (fun () -> Lazy.force cs.level3) in
  (* the static reconfiguration lint gates dynamic SymbC: a program the
     dataflow pass disproves is never simulated.  Warnings (the may/must
     gap) defer to SymbC, which decides them dynamically. *)
  let lint_report, lint_secs =
    timed (fun () ->
        Symbad_lint.Lint.run_program ?pool
          ~gov:(Gov.slice ~label:"lint" ~fraction:0.1 g)
          ~name:"instrumented software" l3.Level3.config_info
          l3.Level3.instrumented_sw)
  in
  let symbc =
    if Symbad_lint.Lint.errors lint_report > 0 then
      Verdict.make ~name:"SymbC reconfiguration consistency"
        ~detail:"static lint already disproved the program"
        (Verdict.Inconclusive "skipped: lint gate")
    else
      (* SymbC itself has no resource knob (one linear pass over the
         call sites), so the governor gates it at entry only *)
      match Gov.exhaustion g with
      | Some reason ->
          Gov.note_degraded g ~what:"symbc" reason;
          Verdict.make ~name:"SymbC reconfiguration consistency"
            (Verdict.Inconclusive
               (Printf.sprintf "governor: %s" (Degrade.reason_string reason)))
      | None ->
          let v, secs =
            timed (fun () ->
                Symbad_symbc.Check.check l3.Level3.config_info
                  l3.Level3.instrumented_sw)
          in
          Verdict.of_symbc ~host_seconds:secs v
  in
  {
    level = 3;
    title = "reconfiguration refinement (FPGA contexts on the bus)";
    host_seconds;
    latency_ns = Some l3.Level3.latency_ns;
    sim_speed_khz = Some (Level3.simulation_speed_khz l3);
    verifications =
      [
        compare_traces ~check:"trace match vs level 2"
          ~reference:(Lazy.force cs.level2).Level2.trace
          ~actual:l3.Level3.trace;
        Verdict.of_lint ~host_seconds:lint_secs lint_report;
        symbc;
        Verdict.make ~name:"FPGA reconfiguration activity"
          ~detail:(Fmt.str "%a" Symbad_fpga.Fpga.pp_stats l3.Level3.fpga_stats)
          Verdict.Proved;
      ];
  }

(* Level 4: RTL + model checking + PCC. *)
let level4 ?pool ?cache ?escalate (_ : Face_app.case_study) g =
  let l4, host_seconds =
    timed (fun () -> Level4.run ?pool ?cache ?escalate ~gov:g ())
  in
  (* the consolidated rows come straight off the module reports (Level4
     owns their shape); the table keeps its historical order — all lint
     rows, then MC, then PCC *)
  let row f = List.map f l4.Level4.modules in
  {
    level = 4;
    title = "RTL generation (predefined IPs + interface wrappers)";
    host_seconds;
    latency_ns = None;
    sim_speed_khz = None;
    verifications =
      row (fun m -> m.Level4.lint_verdict)
      @ row (fun m -> m.Level4.mc_verdict)
      @ row (fun m -> m.Level4.pcc_verdict);
  }

(* The level driver: level [n] runs in its span, under its governor
   slice taken when it starts (its fraction of what the levels before
   it left unspent; level 4 runs over the rest), behind its entry gate,
   and emits its verdict events. *)
let drive gov cs (n, level) =
  Obs.span ~cat:"level" (Printf.sprintf "level%d" n) @@ fun () ->
  let g =
    match List.assoc_opt n level_fractions with
    | Some fraction ->
        Gov.slice ~label:(Printf.sprintf "level%d" n) ~fraction gov
    | None -> gov
  in
  let entry = entry_verdicts n g in
  let l = level cs g in
  let l = { l with verifications = entry @ l.verifications } in
  emit_verdicts n l.verifications;
  l

let run ?pool ?cache ?escalate ?(seed = 1)
    ?(workload = Face_app.default_workload) ?gov () =
  let gov = Gov.get gov in
  let cs = Face_app.case_study workload in
  (* the inputs of every comparison are built before level 1, outside
     its span and its host time *)
  ignore (Lazy.force cs.graph);
  ignore (Lazy.force cs.reference);
  let levels =
    List.map (drive gov cs)
      [
        (1, level1 ?pool ~seed);
        (2, level2);
        (3, level3 ?pool);
        (4, level4 ?pool ?cache ?escalate);
      ]
  in
  {
    workload;
    levels;
    mapping = Lazy.force cs.mapping3;
    all_passed =
      List.for_all
        (fun l -> List.for_all (fun v -> v.Verdict.passed) l.verifications)
        levels;
  }

let pp_level fmt l =
  Fmt.pf fmt "Level %d: %s@." l.level l.title;
  (match l.latency_ns with
  | Some ns -> Fmt.pf fmt "  simulated latency: %dns@." ns
  | None -> ());
  (match l.sim_speed_khz with
  | Some khz when khz <> infinity ->
      Fmt.pf fmt "  simulation speed: %.1f kHz@." khz
  | Some _ | None -> ());
  Fmt.pf fmt "  host time: %.3fs@." l.host_seconds;
  List.iter (fun v -> Fmt.pf fmt "  %a@." Verdict.pp v) l.verifications

(* Markdown rendering of a flow report, for CI artefacts and the
   experiment log. *)
let to_markdown t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# Symbad flow report\n\n";
  add "Workload: %d frames, %d identities, %dx%d pixels.\n\n"
    (List.length t.workload.Face_app.frames)
    t.workload.Face_app.identities t.workload.Face_app.size
    t.workload.Face_app.size;
  List.iter
    (fun l ->
      add "## Level %d — %s\n\n" l.level l.title;
      (match l.latency_ns with
      | Some ns -> add "- simulated latency: %d ns\n" ns
      | None -> ());
      (match l.sim_speed_khz with
      | Some khz when khz <> infinity -> add "- simulation speed: %.1f kHz\n" khz
      | Some _ | None -> ());
      add "- host time: %.3f s\n\n" l.host_seconds;
      add "%s" (Verdict.markdown_table l.verifications);
      add "\n")
    t.levels;
  add "Overall: **%s**\n" (if t.all_passed then "ALL PASSED" else "FAILURES");
  Buffer.contents buf

(* JSON rendering of the same report, for machine consumption (CI
   dashboards, [symbad report], regression diffing).
   [~timings:false] zeroes host timing and simulation speed — the only
   run-dependent fields — so two runs of the same flow at any [--jobs]
   width serialise byte-identically. *)
let to_json ?(timings = true) t =
  let level_json l =
    Json.Obj
      [
        ("level", Json.Int l.level);
        ("title", Json.Str l.title);
        ("host_seconds", Json.Float (if timings then l.host_seconds else 0.));
        ( "latency_ns",
          match l.latency_ns with Some ns -> Json.Int ns | None -> Json.Null );
        ( "sim_speed_khz",
          match l.sim_speed_khz with
          | Some khz when timings && khz <> infinity -> Json.Float khz
          | Some _ | None -> Json.Null );
        ( "verifications",
          Json.List (List.map (Verdict.to_json ~timings) l.verifications) );
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ( "workload",
           Json.Obj
             [
               ( "frames",
                 Json.List
                   (List.map
                      (fun (identity, pose) ->
                        Json.Obj
                          [
                            ("identity", Json.Int identity);
                            ("pose", Json.Int pose);
                          ])
                      t.workload.Face_app.frames) );
               ("size", Json.Int t.workload.Face_app.size);
               ("identities", Json.Int t.workload.Face_app.identities);
             ] );
         ("levels", Json.List (List.map level_json t.levels));
         ("all_passed", Json.Bool t.all_passed);
       ])

let pp fmt t =
  Fmt.pf fmt "Symbad flow on %d frames, %d identities@."
    (List.length t.workload.Face_app.frames)
    t.workload.Face_app.identities;
  List.iter (pp_level fmt) t.levels;
  Fmt.pf fmt "overall: %s@." (if t.all_passed then "ALL PASSED" else "FAILURES")
