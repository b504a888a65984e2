(* The golden-file producer: writes the exact determinism columns of
   the fault campaigns, the lint corpus and the governed verdict mixes
   as resil.out, tmr.out, lint.out and gov.out in the current
   directory.  The dune file beside it diffs each against its committed
   .json, so `dune runtest` fails on any drift and `dune promote`
   accepts a deliberate move.  No host timings: wall-clock figures are
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
  let graph = Face_app.graph Face_app.default_workload in
  let l1 = Level1.run graph in
  let l3 =
    Level3.run graph
      (Mapping.refine_to_fpga
         (Face_app.level2_mapping ~profile:l1.Level1.profile graph)
         Face_app.level3_refinement)
  in
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
   and under shrinking logical budgets (conflicts and patterns alike).
   Logical budgets degrade deterministically, so each mix is exact. *)
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
      ]
  in
  let logical n = Some (Budget.make ~conflicts:n ~patterns:n ()) in
  write "gov"
    (Json.Obj
       (("unlimited", mix None)
       :: List.map
            (fun (label, n) -> ("conflicts+patterns " ^ label, mix (logical n)))
            [ ("100k", 100_000); ("10k", 10_000); ("1k", 1_000); ("0", 0) ]))

let () =
  campaigns ();
  lint ();
  gov ()
