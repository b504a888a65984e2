(* Tests for the unified verification report: the md5 width-invariance
   acceptance property (the no-timings JSON and markdown renders are
   byte-identical at --jobs 1/2/4), that the budget waterfall accounts
   for the root governor's spend, and that the JSON export parses back
   with every section
   present.  Runs under a small logical budget so each assemble is a
   sub-second governed run rather than the full unlimited flow, and
   assembles once per pool width for all four tests. *)

open Symbad_obs
module Par = Symbad_par.Par
module Budget = Symbad_gov.Budget
module Gov = Symbad_gov.Gov
module Report = Symbad_report.Report

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* the 3-frame / 32px / 6-identity smoke workload *)
let workload = Symbad_core.Face_app.smoke_workload

let budget () = Budget.make ~conflicts:1_000 ~patterns:1_000 ()

(* one assemble per pool width, shared by every test that reads it *)
let assembled =
  List.map
    (fun jobs ->
      ( jobs,
        lazy
          (Par.with_pool ~jobs (fun pool ->
               let r =
                 Report.assemble ~pool ~seed:1 ~workload ~budget:(budget ())
                   ~trials_per_kind:1 ()
               in
               (* assemble leaves telemetry populated for the CLI; the
                  tests don't want it leaking into later suites *)
               Obs.reset ();
               Obs.set_enabled false;
               r)) ))
    [ 1; 2; 4 ]

let assemble ~jobs = Lazy.force (List.assoc jobs assembled)

let md5 s = Digest.to_hex (Digest.string s)

let report_md5_width_invariant () =
  let digests jobs =
    let r = assemble ~jobs in
    (md5 (Report.to_json ~timings:false r),
     md5 (Report.to_markdown ~timings:false r))
  in
  let j1, m1 = digests 1 in
  let j2, m2 = digests 2 in
  let j4, m4 = digests 4 in
  check_str "json md5 jobs=2 equals jobs=1" j1 j2;
  check_str "json md5 jobs=4 equals jobs=1" j1 j4;
  check_str "markdown md5 jobs=2 equals jobs=1" m1 m2;
  check_str "markdown md5 jobs=4 equals jobs=1" m1 m4

let waterfall_accounts_for_spend () =
  let r = assemble ~jobs:2 in
  check_bool "some spend recorded" true (r.Report.gov_conflicts > 0);
  let row label =
    match
      List.find_opt (fun (w : Gov.row) -> w.label = label) r.Report.waterfall
    with
    | Some w -> w
    | None -> Alcotest.fail (label ^ " missing from the waterfall")
  in
  let root = row "run" in
  check_int "root subtree conflicts equal gov spend" r.Report.gov_conflicts
    root.subtree_conflicts;
  check_int "root subtree patterns equal gov spend" r.Report.gov_patterns
    root.subtree_patterns;
  (* every engine runs under a slice: an unregistered child would leave
     its spend on its parent's own row *)
  List.iter
    (fun label ->
      let w = row label in
      check_int (label ^ " charges no conflicts itself") 0 w.charged_conflicts;
      check_int (label ^ " charges no patterns itself") 0 w.charged_patterns)
    [ "run"; "run.flow" ];
  check_int "no telemetry dropped" 0 r.Report.dropped

let json_parses_back () =
  let r = assemble ~jobs:2 in
  let doc = Json.parse_exn (Report.to_json ~timings:false r) in
  let mem k =
    match Json.member k doc with
    | Some v -> v
    | None -> Alcotest.fail (k ^ " missing from report JSON")
  in
  List.iter
    (fun k -> ignore (mem k))
    [
      "seed"; "workload"; "all_passed"; "flow"; "lint"; "faults"; "budget";
      "gov"; "profile"; "counters"; "histograms"; "trace";
    ];
  let num section k =
    match Option.bind (Json.member k (mem section)) Json.to_number with
    | Some v -> int_of_float v
    | None -> Alcotest.fail (k ^ " missing from " ^ section ^ " section")
  in
  check_int "json gov spend equals record" r.Report.gov_conflicts
    (num "gov" "spent_conflicts");
  check_int "json budget spend equals record" r.Report.gov_conflicts
    (num "budget" "spent_conflicts");
  (* worker-lane totals present: the merged counters made it out *)
  check_bool "counters section non-empty" true (r.Report.counters <> []);
  check_bool "spans recorded" true (r.Report.span_total > 0)

let markdown_has_sections () =
  let r = assemble ~jobs:1 in
  let md = Report.to_markdown ~timings:false r in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "markdown contains %S" needle) true
        (let n = String.length needle and l = String.length md in
         let rec scan i =
           i + n <= l && (String.sub md i n = needle || scan (i + 1))
         in
         scan 0))
    [
      "# Symbad verification report"; "## Verdicts"; "## Lint";
      "## Budget waterfall"; "## Profile"; "## Counters"; "## Trace";
    ]

let suite =
  [
    Alcotest.test_case "report md5 is pool-width invariant" `Slow
      report_md5_width_invariant;
    Alcotest.test_case "waterfall accounts for gov spend" `Quick
      waterfall_accounts_for_spend;
    Alcotest.test_case "json parses back with every section" `Quick
      json_parses_back;
    Alcotest.test_case "markdown has every section" `Quick
      markdown_has_sections;
  ]
