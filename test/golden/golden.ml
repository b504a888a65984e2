(* The golden-file producer: writes the exact determinism columns of
   the fault campaigns, the lint corpus, the governed verdict mixes, the
   level-2/3 platform, LPV's deadlock verdicts, the lint-to-proof
   escalation and the case study's pixels as resil.out, tmr.out,
   lint.out, gov.out, platform.out, lpv.out, escalate.out and image.out
   in the current directory.  The dune file beside it
   diffs each against its committed .json, so `dune runtest` fails on
   any drift and `dune promote` accepts a deliberate move.  No host timings: wall-clock figures are
   the benchmark's job (perf/). *)

open Symbad_core
module Json = Symbad_obs.Json
module Campaign = Symbad_resil.Campaign
module Lint = Symbad_lint.Lint
module Budget = Symbad_gov.Budget
module Gov = Symbad_gov.Gov

let write name json =
  Out_channel.with_open_bin (name ^ ".out") (fun oc ->
      output_string oc (Json.to_string json);
      output_string oc "\n")

(* One object, one entry per line, so a drift names its entry. *)
let write_lines name entries =
  Out_channel.with_open_bin (name ^ ".out") (fun oc ->
      output_string oc "{\n";
      List.iteri
        (fun i (key, v) ->
          if i > 0 then output_string oc ",\n";
          output_string oc (Json.to_string (Json.Str key));
          output_string oc ":";
          output_string oc (Json.to_string v))
        entries;
      output_string oc "\n}\n")

(* resil: the scrub campaign at seed 1.  tmr: the masked-mode campaign
   and its comparison against that same scrub run. *)
let campaigns () =
  let scrub = Campaign.run ~seed:1 () in
  let tmr = Campaign.run ~mode:Campaign.Tmr ~seed:1 () in
  write "resil" (Campaign.to_json scrub);
  write "tmr"
    (Json.Obj
       [
         ("tmr", Campaign.to_json tmr);
         ("comparison", Campaign.compare_modes ~scrub ~tmr);
       ])

(* Per-target rule, error and warning counts over the shipped corpus:
   the level-4 modules and the recovery controller with their
   properties, the default workload's instrumented software, and the
   seeded demo netlist. *)
let lint () =
  let prop_pairs props =
    List.map (fun p -> (Symbad_mc.Prop.name p, Symbad_mc.Prop.formula p)) props
  in
  let row (r : Lint.report) =
    ( r.Lint.target,
      Json.Obj
        [
          ("rules", Json.Int (List.length r.Lint.rules_run));
          ("errors", Json.Int (Lint.errors r));
          ("warnings", Json.Int (Lint.warnings r));
        ] )
  in
  let l3 = Lazy.force (Face_app.case_study Face_app.default_workload).level3 in
  let recovery = Symbad_resil.Recovery.netlist () in
  write "lint"
    (Json.Obj
       (List.map
          (fun (m : Level4.rtl_module) ->
            row
              (Lint.run_netlist ~properties:(prop_pairs m.Level4.properties)
                 m.Level4.netlist))
          (Level4.modules ())
       @ [
           row
             (Lint.run_netlist
                ~properties:
                  (prop_pairs (Symbad_resil.Recovery.properties recovery))
                recovery);
           row
             (Lint.run_program ~name:"instrumented software"
                l3.Level3.config_info l3.Level3.instrumented_sw);
           row (Lint.run_netlist Symbad_lint.Seeded.demo);
         ]))

(* The smoke flow's passed/failed/inconclusive verdict mix, ungoverned
   and under shrinking logical budgets (conflicts and patterns alike),
   each next to that run's whole report without host timings: every
   row's detail and reason, and which check each budget degraded.
   Logical budgets degrade deterministically, so each run is exact. *)
let gov () =
  let mix budget =
    let report =
      Flow.run ~workload:Face_app.smoke_workload
        ?gov:(Option.map (Gov.create ~label:"flow") budget)
        ()
    in
    let passed, failed, inconclusive =
      List.fold_left
        (fun acc (l : Flow.level_report) ->
          List.fold_left
            (fun (p, f, i) (v : Verdict.t) ->
              match v.Verdict.outcome with
              | Verdict.Inconclusive _ -> (p, f, i + 1)
              | _ when v.Verdict.passed -> (p + 1, f, i)
              | _ -> (p, f + 1, i))
            acc l.Flow.verifications)
        (0, 0, 0) report.Flow.levels
    in
    Json.Obj
      [
        ("passed", Json.Int passed);
        ("failed", Json.Int failed);
        ("inconclusive", Json.Int inconclusive);
        ("report", Json.parse_exn (Flow.to_json ~timings:false report));
      ]
  in
  let logical n = Some (Budget.make ~conflicts:n ~patterns:n ()) in
  write "gov"
    (Json.Obj
       (("unlimited", mix None)
       :: List.map
            (fun (label, n) -> ("conflicts+patterns " ^ label, mix (logical n)))
            [ ("100k", 100_000); ("10k", 10_000); ("1k", 1_000); ("0", 0) ]))

(* The level-2/3 platform, pinned: the simulated-time figures of every
   HW-set sweep point and of the flow's level-2 and level-3 runs, the
   full lint reports of the reconfiguration fixtures, and the SymbC
   verdict on the case study's instrumented software, with and without
   the seeded missing load. *)
let platform () =
  let module Seeded = Symbad_lint.Seeded in
  let module Symbc = Symbad_symbc in
  let ints fields =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) fields)
  in
  let figures (r : Level3.result) =
    let bus = r.Level3.bus_report in
    Json.Obj
      [
        ("latency_ns", Json.Int r.Level3.latency_ns);
        ( "kernel_events",
          Json.Int r.Level3.kernel_stats.Symbad_sim.Kernel.events );
        ("bus_transactions", Json.Int bus.Symbad_tlm.Bus.transactions);
        ("bus_busy_ns", Json.Int bus.Symbad_tlm.Bus.busy_ns);
        ("bitstream_bytes", Json.Int bus.Symbad_tlm.Bus.bitstream_bytes);
        ("cpu_busy_ns", Json.Int r.Level3.cpu_stats.Symbad_tlm.Cpu.busy_ns);
        ( "channels",
          Json.Obj
            (List.map
               (fun (name, (o : Symbad_sim.Fifo.occupancy)) ->
                 ( name,
                   ints
                     [
                       ("puts", o.Symbad_sim.Fifo.puts);
                       ("gets", o.Symbad_sim.Fifo.gets);
                       ("max_occupancy", o.Symbad_sim.Fifo.max_occupancy);
                       ("drops", o.Symbad_sim.Fifo.drops);
                     ] ))
               r.Level3.channel_occupancy) );
      ]
  in
  let cs = Face_app.case_study Face_app.default_workload in
  let graph = Lazy.force cs.graph in
  let sweep =
    Explore.sweep_hw_sets ~profile:(Lazy.force cs.level1).Level1.profile
      ~pinned_sw:Face_app.pinned_sw graph
  in
  let l3 = Lazy.force cs.level3 in
  let symbc program =
    Json.Obj
      [
        ( "check",
          Json.Str
            (Fmt.str "%a" Symbc.Check.pp_verdict
               (Symbc.Check.check l3.Level3.config_info program)) );
      ]
  in
  let tenants deadline_ns =
    Json.Obj
      (List.map
         (fun (name, fixture) ->
           ( name,
             Lint.to_json (Lint.run_tenants ?deadline_ns Seeded.ci fixture) ))
         [
           ("conflict", Seeded.tenants_conflict);
           ("clean", Seeded.tenants_clean);
           ("wcrt_unbounded", Seeded.tenant_wcrt_unbounded);
           ("wcrt_straight", Seeded.tenant_wcrt_straight);
         ])
  in
  write "platform"
    (Json.Obj
       [
         ( "sweep",
           Json.Obj
             (List.map
                (fun (g : Explore.grade) ->
                  ( g.Explore.label,
                    Json.Obj
                      [
                        ( "grade",
                          ints
                            [
                              ("latency_ns", g.Explore.latency_ns);
                              ("bus_busy_ns", g.Explore.bus_busy_ns);
                              ("bitstream_bytes", g.Explore.bitstream_bytes);
                              ("area", g.Explore.area);
                            ] );
                        ("run", figures (Level2.run graph g.Explore.mapping));
                      ] ))
                sweep) );
         ("level2", figures (Lazy.force cs.level2));
         ("level3", figures l3);
         ( "lint",
           Json.Obj
             (List.map
                (fun (name, program) ->
                  (name, Lint.to_json (Lint.run_program Seeded.ci program)))
                (("clean", Seeded.program_clean) :: Seeded.program_fixtures)
             @ [
                 ( "cfg.unreachable-config",
                   Lint.to_json
                     (Lint.run_cfg Seeded.ci Seeded.cfg_unreachable) );
                 ("tenants", tenants None);
                 ("tenants_deadline", tenants (Some 1_500_000));
               ]) );
         ( "symbc",
           Json.Obj
             [
               ("instrumented", symbc l3.Level3.instrumented_sw);
               ( "omit_load_ROOT",
                 symbc
                   (Level3.instrumented_program ~omit_load_for:[ "ROOT" ]
                      graph (Lazy.force cs.mapping3)) );
             ] );
       ])

(* LPV's level-1 deadlock verdicts, each with its minimum cycle token
   count or its witness places in order: bench E5's three nets (the case
   study, the same graph with an unprimed WINNER->CAMERA ack loop, and
   that loop primed with one token) and the verification tour's two ack
   loops. *)
let lpv () =
  let module Lpv = Symbad_lpv in
  let verdict = function
    | Lpv.Deadlock.Deadlock_free { min_cycle_tokens } ->
        Json.Obj
          [
            ( "min_cycle_tokens",
              Json.Str (Fmt.str "%a" Lpv.Rat.pp min_cycle_tokens) );
          ]
    | Lpv.Deadlock.Potential_deadlock { witness } ->
        Json.Obj
          [ ("witness", Json.List (List.map (fun p -> Json.Str p) witness)) ]
    | Lpv.Deadlock.Not_analyzable why -> Json.Obj [ ("not_analyzable", Json.Str why) ]
  in
  let graph = Lazy.force (Face_app.case_study Face_app.default_workload).graph in
  let with_ack tokens =
    Lpv_bridge.check_deadlock
      ~extra_channels:[ ("ack", "WINNER", "CAMERA", tokens) ]
      graph
  in
  let ack_loop tokens =
    let net = Lpv.Petri.create () in
    let producer = Lpv.Petri.add_transition net ~delay:2 () in
    let consumer = Lpv.Petri.add_transition net ~delay:3 () in
    let data = Lpv.Petri.add_place net ~tokens:0 "data" in
    let ack = Lpv.Petri.add_place net ~tokens "ack" in
    Lpv.Petri.add_post net ~transition:producer ~place:data;
    Lpv.Petri.add_pre net ~transition:consumer ~place:data;
    Lpv.Petri.add_post net ~transition:consumer ~place:ack;
    Lpv.Petri.add_pre net ~transition:producer ~place:ack;
    Lpv.Deadlock.check net
  in
  write "lpv"
    (Json.Obj
       [
         ( "e5",
           Json.Obj
             [
               ("case_study", verdict (Lpv_bridge.check_deadlock graph));
               ("unprimed_ack", verdict (with_ack 0));
               ("primed_ack", verdict (with_ack 1));
             ] );
         ( "tour",
           Json.Obj
             [
               ("unprimed_ack", verdict (ack_loop 0));
               ("primed_ack", verdict (ack_loop 1));
             ] );
       ])

(* Lint-to-proof escalation over the lint corpus (the level-4 modules
   and the recovery controller, each with its properties), the seeded
   escalation netlist and a fixture with constancy and no-wrap claims
   on registers declared out of name order: every escalated
   diagnostic's rule, target, location, message, severity and
   discharge.  One run is ungoverned; two run under one root governor
   of a logical conflict budget over the whole corpus, as
   [Report.lint_corpus] does, with the label and conflict columns of
   the governor's waterfall rows, whose positions follow the order
   escalation dispatches its obligations in.  One entry per line. *)
let escalate () =
  let module Seeded = Symbad_lint.Seeded in
  let module D = Symbad_lint.Diagnostic in
  let mixed =
    let module Expr = Symbad_hdl.Expr in
    let module Bitvec = Symbad_hdl.Bitvec in
    let reg name width init next =
      { Symbad_hdl.Netlist.name; width; init; next }
    in
    let d = Expr.input "d" in
    Symbad_hdl.Netlist.make ~name:"mixed_claims"
      ~inputs:[ ("d", 4) ]
      ~registers:
        [
          reg "z" 4 (Bitvec.make ~width:4 5) (Expr.reg "z");
          reg "m" 4 (Bitvec.zero ~width:4) (Expr.add (Expr.reg "m") d);
          reg "a" 4 (Bitvec.make ~width:4 3) (Expr.reg "a");
          reg "b" 4 (Bitvec.zero ~width:4)
            (Expr.sub (Expr.reg "b") (Expr.and_ d (Expr.reg "a")));
        ]
      ~outputs:
        [
          ("s", Expr.add d (Expr.not_ d));
          ("q", Expr.and_ (Expr.reg "z") (Expr.reg "m"));
        ]
  in
  let discharge (g : D.discharge) =
    Json.Obj
      ([
         ("status", Json.Str (D.discharge_label g.D.status));
         ("detail", Json.Str g.D.detail);
       ]
      @
      match g.D.counterexample with
      | None -> []
      | Some cex -> [ ("counterexample", Json.Str cex) ])
  in
  let diagnostic (d : D.t) =
    Option.map
      (fun g ->
        Json.Obj
          [
            ("rule", Json.Str d.D.rule);
            ("target", Json.Str d.D.target);
            ("location", Json.Str d.D.location);
            ("message", Json.Str d.D.message);
            ("severity", Json.Str (D.severity_label d.D.severity));
            ("discharged", discharge g);
          ])
      d.D.discharged
  in
  let row (r : Gov.row) =
    let opt = function None -> Json.Null | Some n -> Json.Int n in
    Json.Obj
      [
        ("label", Json.Str r.Gov.label);
        ("granted_conflicts", opt r.Gov.granted_conflicts);
        ("charged_conflicts", Json.Int r.Gov.charged_conflicts);
        ("subtree_conflicts", Json.Int r.Gov.subtree_conflicts);
      ]
  in
  let run (name, budget) =
    let gov =
      Option.map
        (fun n -> Gov.create ~label:"lint" (Budget.make ~conflicts:n ()))
        budget
    in
    let seeded nl = Lint.escalate ?gov nl (Lint.run_netlist ?gov nl) in
    let reports =
      Symbad_report.Report.lint_corpus ?gov ~escalate:true `All
      @ [ seeded Seeded.escalation; seeded mixed ]
    in
    let numbered kind xs =
      List.mapi (fun i x -> (Printf.sprintf "%s/%s/%d" name kind i, x)) xs
    in
    numbered "diagnostic"
      (List.concat_map
         (fun (r : Lint.report) ->
           List.filter_map diagnostic r.Lint.diagnostics)
         reports)
    @ numbered "waterfall"
        (match gov with None -> [] | Some g -> List.map row (Gov.waterfall g))
  in
  write_lines "escalate"
    (List.concat_map run
       [
         ("unlimited", None);
         ("conflicts 40", Some 40);
         ("conflicts 400", Some 400);
       ])

(* The image pipeline, pixel for pixel: for every size, identity and
   pose of the grid, the digests of the rendered scene, the camera's
   Bayer frame and the gray, eroded and edge images, the fitted
   ellipse (null when the fit fails) and the feature vector; and the
   head of three [Rng] streams, which also drive ATPG and the fault
   plans.  One entry per line, so a drift names its frame. *)
let image () =
  let module I = Symbad_image in
  let rng seed =
    let r = I.Rng.create seed in
    ( Printf.sprintf "rng/%d" seed,
      Json.List
        (List.init 8 (fun _ -> Json.Str (Printf.sprintf "%016Lx" (I.Rng.next r))))
    )
  in
  let frame size identity pose =
    let scene = I.Facegen.frame ~size ~identity ~pose () in
    let s = I.Pipeline.extract (I.Bayer.mosaic scene) in
    let digest img = Json.Str (I.Image.digest img) in
    ( Printf.sprintf "%d/%d/%d" size identity pose,
      Json.Obj
        [
          ("scene", digest scene);
          ("camera", digest s.I.Pipeline.raw);
          ("gray", digest s.I.Pipeline.gray);
          ("eroded", digest s.I.Pipeline.eroded);
          ("edges", digest s.I.Pipeline.edges);
          ( "ellipse",
            match I.Ellipse.fit s.I.Pipeline.edges with
            | Some e -> Json.Str (I.Ellipse.digest e)
            | None -> Json.Null );
          ( "features",
            Json.List
              (Array.to_list (Array.map (fun v -> Json.Int v) s.I.Pipeline.features))
          );
        ] )
  in
  let entries =
    List.map rng [ 0; 1; 12345 ]
    @ List.concat_map
        (fun size ->
          List.concat_map
            (fun identity -> List.init 5 (frame size identity))
            (List.init 20 Fun.id))
        [ 16; 32; 64 ]
  in
  write_lines "image" entries

let () =
  campaigns ();
  lint ();
  gov ();
  platform ();
  lpv ();
  escalate ();
  image ()
