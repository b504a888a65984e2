(* Test-bench quality evaluation: the level-1 functional-verification
   report.  Given a model and a suite, measures the four coverage metrics
   and the high-level fault coverage, which is what tells the designer
   whether the test bench would have exposed the seeded design errors. *)

type evaluation = {
  model : string;
  engine : string;
  tests : int;
  coverage : Coverage.report;
  fault_coverage : float;
  undetected : string list;  (* fault ids the suite misses *)
}

let evaluate ?pool ~engine model tests =
  let coverage = Model.coverage_report ?pool model tests in
  let detected = Model.detected_faults ?pool model tests in
  let undetected =
    List.filter (fun f -> not (List.memq f detected)) model.Model.faults
    |> List.map (fun f -> f.Model.fid)
  in
  let fault_coverage =
    match model.Model.faults with
    | [] -> 1.
    | faults ->
        float_of_int (List.length detected) /. float_of_int (List.length faults)
  in
  {
    model = model.Model.name;
    engine;
    tests = List.length tests;
    coverage;
    fault_coverage;
    undetected;
  }

(* Head-to-head of the engines at equal pattern budget, the shape the
   ATPG experiment reports: formal/guided engines beat random. *)
let compare_engines ?(budget = 64) model =
  let random = Random_engine.generate ~seed:1 ~count:budget model in
  let genetic =
    Genetic_engine.generate
      ~params:
        {
          Genetic_engine.default_params with
          Genetic_engine.seed = 1;
          generations = 1000;
          population = 16;
        }
      model
  in
  (* GA commits only coverage-increasing vectors; cap at the same budget *)
  let genetic = List.filteri (fun i _ -> i < budget) genetic in
  [
    evaluate ~engine:"random" model random;
    evaluate ~engine:"genetic" model genetic;
  ]

let pp_evaluation fmt e =
  Fmt.pf fmt "%-10s %-8s %3d tests: %a faults %.0f%%" e.model e.engine e.tests
    Coverage.pp_report e.coverage
    (100. *. e.fault_coverage)
