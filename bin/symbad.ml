(* The symbad command-line tool: drive the design-and-verification flow
   on the face recognition case study from a shell.

     symbad flow [--frames N] [--size S] [--identities N]
                 [--jobs N] [--seed N] [--no-timings]
                 [--deadline SEC] [--budget N] [--retries N]
                 [--no-cache] [--cache-dir DIR]
                 [--trace FILE] [--metrics FILE]
                 [--json FILE] [--markdown FILE]
     symbad level (1|2|3) [...]         run one refinement level
     symbad verify (deadlock|timing|symbc|rtl)
     symbad lint [TARGET] [...]         static diagnostics
     symbad faults [...]                fault-injection campaign
     symbad explore [...]
     symbad recognize --identity I --pose P
     symbad wrapper [...]               interface synthesis + checking
     symbad report [...]                the unified verification report

   Every subcommand that does verification work shares the same option
   vocabulary: [--jobs] (worker domains, also $SYMBAD_JOBS), [--seed]
   (test-generation seed), [--deadline]/[--budget]/[--retries] (the
   resource governor: wall-clock seconds, logical allowance, portfolio
   retries), [--json]/[--markdown] (report artefacts, "-" for
   stdout). *)

open Cmdliner
open Symbad_core
module Obs = Symbad_obs.Obs
module Tracer = Symbad_obs.Tracer
module Metrics = Symbad_obs.Metrics
module Json = Symbad_obs.Json
module Par = Symbad_par.Par

(* Every report artefact ("--markdown", "--json", "--trace", "--metrics")
   goes through this one path; "-" means stdout. *)
let write_artefact ~what path content =
  if String.equal path "-" then print_string content
  else
    match open_out path with
    | oc ->
        output_string oc content;
        close_out oc;
        Format.printf "%s written to %s@." what path
    | exception Sys_error msg ->
        Format.eprintf "symbad: cannot write %s: %s@." what msg;
        exit 1

let artefact ~what serialise = function
  | Some path -> write_artefact ~what path (serialise ())
  | None -> ()

(* Telemetry-consuming subcommands call this once their run is over: a
   nonzero dropped count means emissions were lost (a worker domain ran
   outside a Par job), so every exported figure under-reports. *)
let warned_dropped = ref false

let warn_dropped () =
  let n = Obs.dropped_count () in
  if n > 0 && not !warned_dropped then begin
    warned_dropped := true;
    Format.eprintf
      "symbad: warning: %d telemetry emission%s dropped (worker domain \
       outside a Par job) — counters and spans under-report the \
       parallel work@."
      n
      (if n = 1 then "" else "s")
  end

(* --trace/--metrics: telemetry stays off (and off the hot paths) unless
   an export asks for it; the exports are written once the run is
   over. *)
let start_telemetry ~trace ~metrics =
  if trace <> None || metrics <> None then begin
    Obs.reset ();
    Obs.set_enabled true
  end

let export_telemetry ~trace ~metrics =
  artefact ~what:"chrome trace"
    (fun () -> Tracer.to_chrome_json (Obs.tracer ()))
    trace;
  artefact ~what:"metrics" (fun () -> Metrics.to_jsonl (Obs.metrics ())) metrics;
  if trace <> None || metrics <> None then warn_dropped ()

(* --- the shared option vocabulary --- *)

type common = {
  frames : int;
  size : int;
  identities : int;
  jobs : int;  (* 0 = auto (one lane per core) *)
  seed : int;
  deadline : float option;  (* wall-clock seconds for governed checks *)
  budget : int option;  (* logical allowance: SAT conflicts AND patterns *)
  retries : int;  (* portfolio retries on inconclusive *)
  no_cache : bool;  (* bypass the content-addressed verdict cache *)
  cache_dir : string option;  (* overrides $SYMBAD_CACHE_DIR / default *)
}

(* A workload size or trial count below 1 is a usage error: reported on
   stderr with exit 2 (the [~term_err] the commands are evaluated with)
   before any work. *)
let at_least_one option arg =
  let check n =
    if n >= 1 then `Ok n
    else
      `Error
        (true, Printf.sprintf "option '%s' must be at least 1, got %d" option n)
  in
  Term.(ret (const check $ arg))

let frames_arg =
  at_least_one "--frames"
    Arg.(value & opt int 8 & info [ "frames" ] ~docv:"N" ~doc:"Camera frames to process.")

let size_arg =
  at_least_one "--size"
    Arg.(value & opt int 64 & info [ "size" ] ~docv:"PIXELS" ~doc:"Frame side length.")

let identities_arg =
  at_least_one "--identities"
    Arg.(value & opt int 20 & info [ "identities" ] ~docv:"N" ~doc:"Database population.")

let trials_arg ~default =
  at_least_one "--trials"
    Arg.(value & opt int default
         & info [ "trials" ] ~docv:"N" ~doc:"Fault-campaign trials per fault kind.")

let jobs_arg =
  let env = Cmd.Env.info "SYMBAD_JOBS" ~doc:"Default for $(b,--jobs)." in
  Arg.(value & opt int 0
       & info [ "jobs"; "j" ] ~docv:"N" ~env
           ~doc:"Worker domains for the parallel verification fan-outs \
                 (0 = one per core).  Results are identical at any width.")

let seed_arg =
  Arg.(value & opt int 1
       & info [ "seed" ] ~docv:"N" ~doc:"Seed for the test-generation engines.")

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the report as JSON (\"-\" for stdout).")

let markdown_arg =
  Arg.(value & opt (some string) None
       & info [ "markdown" ] ~docv:"FILE"
           ~doc:"Write the report as markdown (\"-\" for stdout).")

let no_timings_arg =
  Arg.(value & flag
       & info [ "no-timings" ]
           ~doc:"Zero host times in the report, making it byte-comparable \
                 across runs and $(b,--jobs) widths.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Enable telemetry and write the run's Chrome trace_event \
                 timeline (one lane per worker domain; load in \
                 chrome://tracing or Perfetto; \"-\" for stdout).")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Enable telemetry and write metrics as JSON lines (\"-\" \
                 for stdout).")

let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline" ] ~docv:"SEC"
           ~doc:"Wall-clock budget for the governed verification work.  \
                 When it expires, running checks degrade to inconclusive \
                 verdicts carrying their partial results instead of \
                 running long.")

let budget_arg =
  Arg.(value & opt (some int) None
       & info [ "budget" ] ~docv:"N"
           ~doc:"Logical resource allowance: at most N SAT conflicts and \
                 N test patterns across the governed checks.  Splitting \
                 is deterministic, so governed reports are identical at \
                 any $(b,--jobs) width.")

let retries_arg =
  Arg.(value & opt int 0
       & info [ "retries" ] ~docv:"N"
           ~doc:"Portfolio retries: re-dispatch an inconclusive governed \
                 check up to N times, re-seeded, over the remaining \
                 budget.")

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Bypass the content-addressed verdict cache: re-verify \
                 every RTL module even when a stored verdict matches, and \
                 store nothing back.")

let cache_dir_arg =
  let env = Cmd.Env.info "SYMBAD_CACHE_DIR" ~doc:"Default for $(b,--cache-dir)." in
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR" ~env
           ~doc:"Directory of the verdict cache (default _symbad_cache).")

let common_term =
  let mk frames size identities jobs seed deadline budget retries no_cache
      cache_dir =
    { frames; size; identities; jobs; seed; deadline; budget; retries;
      no_cache; cache_dir }
  in
  Term.(const mk $ frames_arg $ size_arg $ identities_arg $ jobs_arg $ seed_arg
        $ deadline_arg $ budget_arg $ retries_arg $ no_cache_arg
        $ cache_dir_arg)

let with_pool c f =
  Par.with_pool ?jobs:(if c.jobs > 0 then Some c.jobs else None) f

(* The CLI's resource-governor surface: --deadline/--budget/--retries
   collapse into one Budget.t (None when all are absent, so ungoverned
   runs take the historical code paths untouched). *)
let budget_of c =
  match (c.deadline, c.budget, c.retries) with
  | None, None, 0 -> None
  | _ ->
      Some
        (Symbad_gov.Budget.make ?deadline_s:c.deadline ?conflicts:c.budget
           ?patterns:c.budget ~retries:c.retries ())

let gov_of ?label c =
  Option.map (fun b -> Symbad_gov.Gov.create ?label b) (budget_of c)

(* The verdict cache is on by default for the verification subcommands;
   --no-cache bypasses it entirely (no reads, no writes). *)
let cache_of c =
  if c.no_cache then None
  else Some (Symbad_cache.Cache.create ?dir:c.cache_dir ())

let report_cache_use c cache =
  match cache with
  | Some cc when not c.no_cache ->
      let h = Symbad_cache.Cache.hits cc
      and m = Symbad_cache.Cache.misses cc in
      if h + m > 0 then
        Format.printf "verdict cache: %d hit%s, %d miss%s (%s)@." h
          (if h = 1 then "" else "s")
          m
          (if m = 1 then "" else "es")
          (Symbad_cache.Cache.dir cc)
  | _ -> ()

let workload c =
  {
    Face_app.size = c.size;
    identities = c.identities;
    frames = Face_app.camera_script ~identities:c.identities c.frames;
  }

(* --- flow --- *)

let run_flow c markdown json no_timings trace metrics =
  start_telemetry ~trace ~metrics;
  let w = workload c in
  let cache = cache_of c in
  let report =
    with_pool c (fun pool ->
        Flow.run ~pool ?cache ~seed:c.seed ~workload:w
          ?gov:(gov_of ~label:"flow" c) ())
  in
  Format.printf "%a@." Flow.pp report;
  report_cache_use c cache;
  artefact ~what:"markdown report" (fun () -> Flow.to_markdown report) markdown;
  artefact ~what:"json report"
    (fun () -> Flow.to_json ~timings:(not no_timings) report)
    json;
  export_telemetry ~trace ~metrics;
  if report.Flow.all_passed then 0 else 1

let flow_cmd =
  let doc = "Run the complete four-level design and verification flow." in
  Cmd.v (Cmd.info "flow" ~doc)
    Term.(const run_flow $ common_term $ markdown_arg $ json_arg
          $ no_timings_arg $ trace_arg $ metrics_arg)

(* --- level --- *)

let run_level level c markdown json =
  if level < 1 || level > 3 then begin
    Format.eprintf "symbad: no such level: %d (use 1, 2 or 3)@." level;
    2
  end
  else
  let cs = Face_app.case_study (workload c) in
  let report =
    match level with
    | 1 ->
        let l1 = Lazy.force cs.level1 in
        Format.printf "level 1: %a@." Symbad_sim.Kernel.pp_stats
          l1.Level1.kernel_stats;
        Format.printf "profiling ranking:@.%a@."
          Symbad_tlm.Annotation.Profile.pp l1.Level1.profile;
        Json.Obj
          [
            ("level", Json.Int 1);
            ( "ranking",
              Json.List
                (List.map
                   (fun (task, units) ->
                     Json.Obj
                       [ ("task", Json.Str task); ("units", Json.Int units) ])
                   (Symbad_tlm.Annotation.Profile.ranking l1.Level1.profile)) );
          ]
    | 2 ->
        let m = Lazy.force cs.mapping2 in
        let r = Lazy.force cs.level2 in
        Format.printf "mapping:@.%a" Mapping.pp m;
        Format.printf "latency: %dns; %.0f kHz; cpu %a@.bus %a@."
          r.Level2.latency_ns
          (Level3.simulation_speed_khz r)
          Symbad_tlm.Cpu.pp_stats r.Level2.cpu_stats
          Symbad_tlm.Bus.pp_report r.Level2.bus_report;
        Json.Obj
          [
            ("level", Json.Int 2);
            ("latency_ns", Json.Int r.Level2.latency_ns);
            ( "bus_utilisation",
              Json.Float r.Level2.bus_report.Symbad_tlm.Bus.utilisation );
          ]
    | _ (* 3 *) ->
        let r = Lazy.force cs.level3 in
        Format.printf "latency: %dns; %.0f kHz@.fpga %a@.bus %a@."
          r.Level3.latency_ns
          (Level3.simulation_speed_khz r)
          Symbad_fpga.Fpga.pp_stats r.Level3.fpga_stats
          Symbad_tlm.Bus.pp_report r.Level3.bus_report;
        Format.printf "instrumented SW:@.%a@." Symbad_symbc.Ast.pp
          r.Level3.instrumented_sw;
        Json.Obj
          [
            ("level", Json.Int 3);
            ("latency_ns", Json.Int r.Level3.latency_ns);
            ( "bitstream_bytes",
              Json.Int r.Level3.bus_report.Symbad_tlm.Bus.bitstream_bytes );
          ]
  in
  artefact ~what:"json report" (fun () -> Json.to_string report) json;
  artefact ~what:"markdown report"
    (fun () ->
      Printf.sprintf "# Level %d\n\n```\n%s\n```\n" level
        (Json.to_string report))
    markdown;
  0

let level_cmd =
  let doc = "Run one refinement level of the case study." in
  let level_arg =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"LEVEL")
  in
  Cmd.v (Cmd.info "level" ~doc)
    Term.(const run_level $ level_arg $ common_term $ markdown_arg $ json_arg)

(* --- verify --- *)

let run_verify what c markdown json =
  let cs = Face_app.case_study (workload c) in
  let checks =
    [
      ( "deadlock",
        fun () ->
          let graph = Lazy.force cs.graph in
          [
            Verdict.of_lpv_deadlock
              (Lpv_bridge.check_deadlock ?gov:(gov_of ~label:"verify" c) graph);
          ] );
      ( "timing",
        fun () ->
          let graph = Lazy.force cs.graph and m = Lazy.force cs.mapping2 in
          let deadline_ns = Face_app.deadline_ns in
          let verdict, met =
            Lpv_bridge.check_deadline ~deadline_ns
              ~timing:Level3.default_config ~mapping:m
              ~profile:(Lazy.force cs.level1).Level1.profile
              ?gov:(gov_of ~label:"verify" c) graph
          in
          [ Verdict.of_lpv_timing ~deadline_ns ~met verdict ] );
      ( "symbc",
        fun () ->
          let r = Lazy.force cs.level3 in
          [
            Verdict.of_symbc
              (Symbad_symbc.Check.check r.Level3.config_info
                 r.Level3.instrumented_sw);
          ] );
      ( "rtl",
        fun () ->
          let cache = cache_of c in
          let l4 =
            with_pool c (fun pool ->
                Level4.run ~pool ?cache ?gov:(gov_of ~label:"verify" c) ())
          in
          Format.printf "%a@." Level4.pp l4;
          report_cache_use c cache;
          List.concat_map Level4.module_verdicts l4.Level4.modules );
    ]
  in
  match List.assoc_opt what checks with
  | None ->
      Format.eprintf "symbad: unknown check %S (%s)@." what
        (String.concat "|" (List.map fst checks));
      2
  | Some run ->
      let vs = run () in
      List.iter (fun v -> Format.printf "%a@." Verdict.pp v) vs;
      artefact ~what:"json report"
        (fun () ->
          Json.to_string (Json.List (List.map (Verdict.to_json ~timings:true) vs)))
        json;
      artefact ~what:"markdown report"
        (fun () ->
          Printf.sprintf "# Verification: %s\n\n%s" what
            (Verdict.markdown_table vs))
        markdown;
      if List.for_all (fun v -> v.Verdict.passed) vs then 0 else 1

let verify_cmd =
  let doc = "Run one verification technology of the flow." in
  let what_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CHECK")
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(const run_verify $ what_arg $ common_term $ markdown_arg $ json_arg)

(* --- lint --- *)

(* The lint targets: the report's netlist corpus, the instrumented
   software and the seeded fixtures. *)
let lint_reports c target rules ~escalate ~programs =
  let module Lint = Symbad_lint.Lint in
  with_pool c (fun pool ->
      let gov = gov_of ~label:"lint" c in
      (* --escalate folds model-checker verdicts into the warnings that
         carry obligations; the escalation runs under the same governor
         and is byte-identical at any --jobs width. *)
      let corpus part =
        Symbad_report.Report.lint_corpus ~pool ?gov ?rules ~escalate part
      in
      let seeded nl =
        let r = Lint.run_netlist ~pool ?gov ?rules nl in
        if escalate then Lint.escalate ~pool ?gov nl r else r
      in
      let program () =
        let r = Lazy.force (Face_app.case_study (workload c)).level3 in
        let base =
          Lint.run_program ~pool ?gov ?rules ~name:"instrumented software"
            r.Level3.config_info r.Level3.instrumented_sw
        in
        if programs < 2 then [ base ]
        else
          (* --programs N: admission analysis of N copies of the
             reconfiguration program sharing the fabric.  The admission
             deadline is the --deadline value (a design parameter here,
             not the governor's wall clock — the report stays
             deterministic). *)
          let deadline_ns =
            Option.map (fun s -> int_of_float (s *. 1e9)) c.deadline
          in
          let tenants =
            List.init programs (fun i ->
                (Printf.sprintf "tenant-%d" (i + 1), r.Level3.instrumented_sw))
          in
          [
            base;
            Lint.run_tenants ~pool ?gov ?rules ?deadline_ns
              r.Level3.config_info tenants;
          ]
      in
      match target with
      | "all" ->
          (* a governor spends its rules in the printed order *)
          let netlists = corpus `All in
          Some (netlists @ program ())
      | "rtl" -> Some (corpus `Rtl)
      | "recovery" -> Some (corpus `Recovery)
      | "program" -> Some (program ())
      | "demo" ->
          (* the seeded defective netlist: a stable exercise target for
             the error path (comb loop + width + multiple drivers) *)
          Some [ seeded Symbad_lint.Seeded.demo ]
      | "escalation" ->
          (* the seeded escalation netlist: two net.range warnings with
             obligations, one disprovable (the accumulator wraps) and one
             provable (d + ~d never carries) — the stable exercise target
             for --escalate *)
          Some [ seeded Symbad_lint.Seeded.escalation ]
      | _ -> None)

let run_lint target c rules_opt threshold escalate programs sarif markdown json
    =
  let module Lint = Symbad_lint.Lint in
  let rules =
    Option.map
      (fun s -> List.map String.trim (String.split_on_char ',' s))
      rules_opt
  in
  match lint_reports c target rules ~escalate ~programs with
  | exception Invalid_argument msg ->
      Format.eprintf "symbad: %s@." msg;
      2
  | None ->
      Format.eprintf
        "symbad: unknown lint target %S \
         (all|rtl|recovery|program|demo|escalation)@."
        target;
      2
  | Some reports ->
      let merged = Lint.merge ~target reports in
      List.iter (fun r -> Format.printf "%a" Lint.pp r) reports;
      artefact ~what:"json report"
        (fun () -> Json.to_string (Lint.to_json merged) ^ "\n")
        json;
      artefact ~what:"sarif report"
        (fun () -> Json.to_string (Symbad_lint.Sarif.of_report merged) ^ "\n")
        sarif;
      artefact ~what:"markdown report"
        (fun () -> String.concat "\n" (List.map Lint.to_markdown reports))
        markdown;
      if Lint.count_at_least threshold merged > 0 then 1 else 0

let lint_cmd =
  let doc =
    "Statically lint netlists and reconfiguration programs — the \
     diagnostics pass that runs before simulation and model checking."
  in
  let target_arg =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"TARGET"
             ~doc:"What to lint: all (default), rtl (the level-4 modules), \
                   recovery (the recovery controller), program (the \
                   instrumented reconfiguration software), demo (a \
                   seeded defective netlist) or escalation (a seeded \
                   netlist exercising $(b,--escalate)).")
  in
  let rules_arg =
    Arg.(value & opt (some string) None
         & info [ "rules" ] ~docv:"R1,R2"
             ~doc:"Comma-separated rule ids to run (default: every rule \
                   applicable to the target).  Unknown ids are rejected, \
                   not ignored.")
  in
  let threshold_arg =
    let sev_conv =
      Arg.enum
        (let module D = Symbad_lint.Diagnostic in
         [ ("error", D.Error); ("warning", D.Warning); ("info", D.Info) ])
    in
    Arg.(value & opt sev_conv Symbad_lint.Diagnostic.Error
         & info [ "severity-threshold" ] ~docv:"SEV"
             ~doc:"Lowest severity that fails the run: error (default), \
                   warning or info.")
  in
  let escalate_arg =
    Arg.(value & flag
         & info [ "escalate" ]
             ~doc:"Lint-to-proof escalation: dispatch every warning that \
                   carries a proof obligation to the model checker.  \
                   Disproved warnings are promoted to errors with the \
                   counterexample trace attached; proved ones demote to \
                   info; inconclusive ones keep their severity.  Bounded \
                   by $(b,--budget)/$(b,--deadline) like every governed \
                   check.  Results are byte-identical at any $(b,--jobs) \
                   width.")
  in
  let programs_arg =
    Arg.(value & opt int 1
         & info [ "programs" ] ~docv:"N"
             ~doc:"Admission analysis: lint N concurrently admitted \
                   copies of the reconfiguration program as tenants \
                   sharing one fabric (program and all targets), running \
                   the sched.* rules over their interleaved product.  \
                   The admission deadline is $(b,--deadline).")
  in
  let sarif_arg =
    Arg.(value & opt (some string) None
         & info [ "sarif" ] ~docv:"FILE"
             ~doc:"Write the merged diagnostics as a SARIF 2.1.0 log \
                   (\"-\" for stdout).")
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const run_lint $ target_arg $ common_term $ rules_arg
          $ threshold_arg $ escalate_arg $ programs_arg $ sarif_arg
          $ markdown_arg $ json_arg)

(* --- explore --- *)

let run_explore c max_hw json =
  let cs = Face_app.case_study (workload c) in
  (* forced before the sweep's fan-out: no Par job may force a part *)
  let graph = Lazy.force cs.graph in
  let profile = (Lazy.force cs.level1).Level1.profile in
  let grades =
    with_pool c (fun pool ->
        Explore.sweep_hw_sets ~pool ~profile ~pinned_sw:Face_app.pinned_sw
          ~max_hw graph)
  in
  List.iter (fun g -> Format.printf "%a@." Explore.pp_grade g) grades;
  Format.printf "pareto:@.";
  let pareto = Explore.pareto grades in
  List.iter (fun g -> Format.printf "  %a@." Explore.pp_grade g) pareto;
  artefact ~what:"json report"
    (fun () ->
      let grade_json (g : Explore.grade) =
        Json.Obj
          [
            ("label", Json.Str g.Explore.label);
            ("latency_ns", Json.Int g.Explore.latency_ns);
            ("area", Json.Int g.Explore.area);
            ("bus_utilisation", Json.Float g.Explore.bus_utilisation);
            ("bitstream_bytes", Json.Int g.Explore.bitstream_bytes);
            ("energy_proxy", Json.Float g.Explore.energy_proxy);
          ]
      in
      Json.to_string
        (Json.Obj
           [
             ("grades", Json.List (List.map grade_json grades));
             ( "pareto",
               Json.List
                 (List.map (fun g -> Json.Str g.Explore.label) pareto) );
           ]))
    json;
  0

let explore_cmd =
  let doc = "Architecture exploration: sweep HW/SW partitions." in
  let max_hw_arg =
    Arg.(value & opt int 6 & info [ "max-hw" ] ~docv:"N" ~doc:"Largest HW set.")
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(const run_explore $ common_term $ max_hw_arg $ json_arg)

(* --- recognize --- *)

let run_recognize identity pose size identities =
  let db = Symbad_image.Pipeline.enroll ~size ~identities () in
  let raw = Symbad_image.Pipeline.camera ~size ~identity ~pose () in
  let verdict = Symbad_image.Pipeline.recognize db raw in
  Format.printf "%a@." Symbad_image.Winner.pp verdict;
  0

let recognize_cmd =
  let doc = "Recognise one synthetic camera frame against the database." in
  let identity_arg =
    Arg.(value & opt int 0 & info [ "identity" ] ~docv:"I" ~doc:"Subject identity.")
  in
  let pose_arg =
    Arg.(value & opt int 1 & info [ "pose" ] ~docv:"P" ~doc:"Pose (0 = frontal).")
  in
  Cmd.v (Cmd.info "recognize" ~doc)
    Term.(const run_recognize $ identity_arg $ pose_arg $ size_arg $ identities_arg)

(* --- faults (dependability campaign) --- *)

let run_faults c markdown json trials kinds_opt mode scrub_period trace metrics
    =
  start_telemetry ~trace ~metrics;
  let module Fault = Symbad_resil.Fault in
  let module Campaign = Symbad_resil.Campaign in
  let kinds =
    match kinds_opt with
    | None -> Ok Fault.all_kinds
    | Some s ->
        String.split_on_char ',' s
        |> List.fold_left
             (fun acc name ->
               match (acc, Fault.of_string (String.trim name)) with
               | (Error _ as e), _ -> e
               | Ok _, Error msg -> Error msg
               | Ok ks, Ok k -> Ok (ks @ [ k ]))
             (Ok [])
  in
  match kinds with
  | Error msg ->
      Format.eprintf "symbad: %s@." msg;
      2
  | Ok kinds -> (
      let w = workload c in
      let campaign mode =
        with_pool c (fun pool ->
            Campaign.run ~pool ?gov:(gov_of ~label:"faults" c) ~mode ~kinds
              ~trials_per_kind:trials ~workload:w ~scrub_period_ns:scrub_period
              ~seed:c.seed ())
      in
      let summarize (report : Campaign.report) =
        let v = Campaign.verdict report in
        Format.printf
          "%s mode: baseline latency %d ns, fabric area %d, %d trials (%d \
           skipped, %d masked)@."
          report.Campaign.mode report.Campaign.baseline_latency_ns
          report.Campaign.fabric_area
          (List.length report.Campaign.outcomes)
          report.Campaign.skipped report.Campaign.masked_trials;
        List.iter
          (fun row ->
            Format.printf
              "  %-14s injected %d/%d detected %d recovered %d masked %d \
               correct %d@."
              row.Campaign.row_kind row.Campaign.row_injected
              row.Campaign.row_trials row.Campaign.row_detected
              row.Campaign.row_recovered row.Campaign.row_masked
              row.Campaign.row_correct)
          report.Campaign.per_kind;
        Format.printf "%s: %s@."
          (if v.Verdict.passed then "PASS" else "FAIL")
          v.Verdict.detail
      in
      let finish ~passed ~md ~js =
        artefact ~what:"markdown report" md markdown;
        artefact ~what:"json report" js json;
        export_telemetry ~trace ~metrics;
        if passed then 0 else 1
      in
      match mode with
      | `One mode ->
          let report = campaign mode in
          summarize report;
          finish ~passed:report.Campaign.passed
            ~md:(fun () -> Campaign.to_markdown report)
            ~js:(fun () -> Json.to_string (Campaign.to_json report) ^ "\n")
      | `Both ->
          let scrub = campaign Campaign.Scrub in
          let tmr = campaign Campaign.Tmr in
          summarize scrub;
          summarize tmr;
          finish ~passed:(scrub.Campaign.passed && tmr.Campaign.passed)
            ~md:(fun () ->
              Campaign.compare_modes_markdown ~scrub ~tmr
              ^ "\n" ^ Campaign.to_markdown scrub ^ "\n"
              ^ Campaign.to_markdown tmr)
            ~js:(fun () ->
              Json.to_string
                (Json.Obj
                   [
                     ("scrub", Campaign.to_json scrub);
                     ("tmr", Campaign.to_json tmr);
                     ("comparison", Campaign.compare_modes ~scrub ~tmr);
                   ])
              ^ "\n"))

let faults_cmd =
  let doc =
    "Run a seeded fault-injection campaign against the level-3 platform: \
     bitstream SEUs, configuration upsets, bus errors and corruptions, \
     channel loss and stuck resources, each graded on detection, recovery, \
     masking and end-to-end correctness."
  in
  let kinds_arg =
    Arg.(value & opt (some string) None
         & info [ "kinds" ] ~docv:"K1,K2"
             ~doc:"Comma-separated fault kinds to inject (default: all).")
  in
  let mode_arg =
    Arg.(value
         & opt
             (enum
                [
                  ("scrub", `One Symbad_resil.Campaign.Scrub);
                  ("tmr", `One Symbad_resil.Campaign.Tmr);
                  ("both", `Both);
                ])
             (`One Symbad_resil.Campaign.Scrub)
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"Operating mode under test: $(b,scrub) (detect and \
                   repair), $(b,tmr) (TMR + bus-ECC masking), or \
                   $(b,both) to run both campaigns and emit a \
                   side-by-side comparison.")
  in
  let scrub_arg =
    Arg.(value & opt int 10_000
         & info [ "scrub-period" ] ~docv:"NS"
             ~doc:"Readback-scrubbing period for configuration-upset \
                   trials; 0 disables scrubbing, making upsets \
                   undetectable (reported as failures).")
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(const run_faults $ common_term $ markdown_arg $ json_arg
          $ trials_arg ~default:3 $ kinds_arg $ mode_arg $ scrub_arg $ trace_arg
          $ metrics_arg)

(* --- wrapper (automated interface synthesis) --- *)

let run_wrapper data_width depth dump_vcd =
  let spec = Wrapper_gen.make_spec ~data_width ~depth () in
  let nl, props, reports = Wrapper_gen.synthesize_and_verify spec in
  Format.printf "synthesised %s: %d registers, area %d@."
    (Symbad_hdl.Netlist.name nl)
    (List.length (Symbad_hdl.Netlist.registers nl))
    (Symbad_hdl.Netlist.area nl);
  Format.printf "%d generated checkers:@." (List.length props);
  List.iter (fun r -> Format.printf "  %a@." Symbad_mc.Engine.pp_report r)
    reports;
  if dump_vcd then begin
    let bv w v = Symbad_hdl.Bitvec.make ~width:w v in
    let stim =
      List.init 8 (fun i ->
          [ ("req", bv 1 (if i < 4 then 1 else 0));
            ("data", bv data_width (i * 17));
            ("take", bv 1 (i mod 2)) ])
    in
    print_string (Symbad_hdl.Vcd.of_simulation nl stim)
  end;
  if Symbad_mc.Engine.all_proved reports then 0 else 1

let wrapper_cmd =
  let doc = "Synthesise an RTL/TL interface wrapper and verify it against its generated checkers." in
  let width_arg =
    Arg.(value & opt int 8 & info [ "data-width" ] ~docv:"BITS" ~doc:"Payload width.")
  in
  let depth_arg =
    Arg.(value & opt int 2 & info [ "depth" ] ~docv:"SLOTS" ~doc:"Buffer slots (1 or 2).")
  in
  let vcd_arg =
    Arg.(value & flag & info [ "vcd" ] ~doc:"Dump a sample waveform to stdout.")
  in
  Cmd.v (Cmd.info "wrapper" ~doc)
    Term.(const run_wrapper $ width_arg $ depth_arg $ vcd_arg)

(* --- report (the unified verification artefact) --- *)

let run_report c trials no_faults no_timings escalate markdown json trace =
  let module Report = Symbad_report.Report in
  let w = workload c in
  let cache = cache_of c in
  let r =
    with_pool c (fun pool ->
        Report.assemble ~pool ?cache ~seed:c.seed ~workload:w
          ?budget:(budget_of c) ~faults:(not no_faults)
          ~trials_per_kind:trials ~escalate ())
  in
  let timings = not no_timings in
  (match (markdown, json) with
  | None, None ->
      (* no artefact requested: the markdown report goes to stdout *)
      print_string (Report.to_markdown ~timings r)
  | _ ->
      artefact ~what:"markdown report"
        (fun () -> Report.to_markdown ~timings r)
        markdown;
      artefact ~what:"json report" (fun () -> Report.to_json ~timings r) json);
  artefact ~what:"chrome trace"
    (fun () -> Tracer.to_chrome_json (Obs.tracer ()))
    trace;
  warn_dropped ();
  if r.Report.all_passed then 0 else 1

let report_cmd =
  let doc =
    "Run the whole methodology — the four-level flow, the static lints \
     and a fault campaign — under one governor tree and assemble a \
     single self-contained report: verdict table, lint diagnostics, \
     self-time profile, merged counters, budget waterfall and trace \
     summary.  With $(b,--no-timings) the JSON and markdown are \
     byte-identical at any $(b,--jobs) width."
  in
  let no_faults_arg =
    Arg.(value & flag
         & info [ "no-faults" ] ~doc:"Skip the fault-injection campaign.")
  in
  let escalate_arg =
    Arg.(value & flag
         & info [ "escalate" ]
             ~doc:"Escalate lint warnings with proof obligations to the \
                   model checker (in the lint corpus and inside the \
                   flow's level 4): proved warnings are re-emitted as \
                   informational, disproved ones as errors with a \
                   counterexample.")
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const run_report $ common_term $ trials_arg ~default:1 $ no_faults_arg
          $ no_timings_arg $ escalate_arg $ markdown_arg $ json_arg
          $ trace_arg)

let () =
  let doc = "Symbad: design and verification flow for reconfigurable SoCs." in
  let info = Cmd.info "symbad" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval' ~term_err:2
       (Cmd.group info
          [ flow_cmd; level_cmd; verify_cmd; lint_cmd; explore_cmd;
            recognize_cmd; faults_cmd; wrapper_cmd; report_cmd ]))
