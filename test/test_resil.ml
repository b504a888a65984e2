(* Tests for the fault-injection campaign engine and the recovery
   state machine. *)

module Par = Symbad_par.Par
module Gov = Symbad_gov.Gov
module Budget = Symbad_gov.Budget
module Json = Symbad_obs.Json
module Verdict = Symbad_core.Verdict
open Symbad_resil

let check = Alcotest.(check int)

(* --- the recovery controller's model-checked contract --- *)

let recovery_fsm_proved () =
  let reports = Recovery.check () in
  check "six properties" 6 (List.length reports);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s proved" r.Symbad_mc.Engine.property)
        true
        (match r.Symbad_mc.Engine.verdict with
        | Symbad_mc.Engine.Proved _ -> true
        | _ -> false))
    reports;
  Alcotest.(check bool) "all_proved" true (Symbad_mc.Engine.all_proved reports)

let recovery_fsm_bounds_validated () =
  Alcotest.(check bool) "max_tries validated" true
    (try
       ignore (Recovery.netlist ~max_tries:4 ());
       false
     with Invalid_argument _ -> true)

(* --- campaign: determinism, recovery, honest failure --- *)

let small_campaign ?gov ?mode ?kinds ?(trials_per_kind = 1) ?scrub_period_ns
    ~jobs ~seed () =
  Par.with_pool ~jobs (fun pool ->
      Campaign.run ~pool ?gov ?mode ?kinds ~trials_per_kind ?scrub_period_ns
        ~seed ())

let campaign_deterministic_across_jobs () =
  let render jobs =
    Json.to_string (Campaign.to_json (small_campaign ~jobs ~seed:42 ()))
  in
  let j1 = render 1 in
  Alcotest.(check string) "jobs=2 byte-identical" j1 (render 2);
  Alcotest.(check string) "jobs=4 byte-identical" j1 (render 4)

let campaign_tmr_deterministic_across_jobs () =
  let render jobs =
    Json.to_string
      (Campaign.to_json (small_campaign ~mode:Campaign.Tmr ~jobs ~seed:42 ()))
  in
  let j1 = render 1 in
  Alcotest.(check string) "tmr jobs=3 byte-identical" j1 (render 3)

let campaign_recovers_winner () =
  let r = small_campaign ~trials_per_kind:2 ~jobs:2 ~seed:7 () in
  Alcotest.(check bool) "control matches baseline" true r.Campaign.control_ok;
  check "nothing skipped" 0 r.Campaign.skipped;
  List.iter
    (fun (o : Campaign.outcome) ->
      Alcotest.(check bool)
        (Printf.sprintf "trial %d (%s) elects the baseline winner" o.trial
           o.Campaign.kind)
        true o.Campaign.correct)
    r.Campaign.outcomes;
  Alcotest.(check bool) "campaign passed" true r.Campaign.passed;
  Alcotest.(check bool) "verdict proved" true
    (Campaign.verdict r).Verdict.passed

let campaign_undetected_fault_fails () =
  (* scrubbing disabled: configuration upsets go unobserved — the
     campaign must report that as a failure, never as a pass *)
  let r =
    small_campaign ~kinds:[ Fault.Config_upset ] ~trials_per_kind:2
      ~scrub_period_ns:0 ~jobs:2 ~seed:3 ()
  in
  Alcotest.(check bool) "not passed" false r.Campaign.passed;
  (match Campaign.first_failure r with
  | None -> Alcotest.fail "expected a failing trial"
  | Some o ->
      Alcotest.(check bool) "fault landed" true o.Campaign.injected;
      Alcotest.(check bool) "but was never detected" false o.Campaign.detected);
  Alcotest.(check bool) "verdict fails" false (Campaign.verdict r).Verdict.passed

let campaign_budget_degrades_to_inconclusive () =
  (* a pattern budget covering only part of the plan: the rest is
     skipped and the verdict degrades, it does not pass optimistically *)
  let gov = Gov.create ~label:"resil" (Budget.make ~patterns:3 ()) in
  let r = small_campaign ~gov ~trials_per_kind:2 ~jobs:2 ~seed:5 () in
  (* 1 control + 2 x 8 kinds planned, 3 executed *)
  check "trials beyond the budget skipped" 14 r.Campaign.skipped;
  Alcotest.(check bool) "not passed" false r.Campaign.passed;
  let v = Campaign.verdict r in
  Alcotest.(check bool) "verdict fails" false v.Verdict.passed;
  Alcotest.(check bool) "inconclusive, not disproved" true
    (match v.Verdict.outcome with Verdict.Inconclusive _ -> true | _ -> false)

let campaign_zero_budget_runs_nothing () =
  let gov = Gov.create ~label:"resil" (Budget.make ~patterns:0 ()) in
  let r = small_campaign ~gov ~jobs:1 ~seed:5 () in
  check "everything skipped" (List.length r.Campaign.outcomes)
    r.Campaign.skipped;
  Alcotest.(check bool) "not passed" false r.Campaign.passed

(* --- the masked operating mode: TMR + bus ECC --- *)

let campaign_tmr_masks_at_zero_latency () =
  (* in tmr mode every maskable fault — configuration upsets (either
     copy) and single-bit bus corruptions — must be absorbed with the
     correct winner at exactly the baseline service time *)
  let r =
    small_campaign ~mode:Campaign.Tmr
      ~kinds:[ Fault.Config_upset; Fault.Tmr_upset; Fault.Ecc_single ]
      ~trials_per_kind:2 ~jobs:2 ~seed:11 ()
  in
  Alcotest.(check string) "mode recorded" "tmr" r.Campaign.mode;
  Alcotest.(check bool) "campaign passed" true r.Campaign.passed;
  check "all six trials masked" 6 r.Campaign.masked_trials;
  List.iter
    (fun (o : Campaign.outcome) ->
      if not (String.equal o.Campaign.kind "control") then begin
        Alcotest.(check bool)
          (Printf.sprintf "trial %d (%s) masked" o.trial o.Campaign.kind)
          true o.Campaign.masked;
        check
          (Printf.sprintf "trial %d (%s) zero recovery latency" o.trial
             o.Campaign.kind)
          0 o.Campaign.recovery_ns
      end)
    r.Campaign.outcomes;
  (* the masked mode's price is on the books: triplicated fabric area *)
  Alcotest.(check bool) "tmr area on the books" true
    (r.Campaign.fabric_area
    > (small_campaign ~kinds:[] ~jobs:1 ~seed:11 ()).Campaign.fabric_area)

let campaign_ecc_double_recovers_by_retry () =
  (* a double-bit corruption is beyond correction: ECC detects it (never
     miscorrects) and the bounded bus retry recovers — detected and
     recovered, but not masked *)
  let r =
    small_campaign ~mode:Campaign.Tmr ~kinds:[ Fault.Ecc_double ]
      ~trials_per_kind:2 ~jobs:2 ~seed:11 ()
  in
  Alcotest.(check bool) "campaign passed" true r.Campaign.passed;
  List.iter
    (fun (o : Campaign.outcome) ->
      if not (String.equal o.Campaign.kind "control") then begin
        Alcotest.(check bool) "detected" true o.Campaign.detected;
        Alcotest.(check bool) "recovered" true o.Campaign.recovered;
        Alcotest.(check bool) "not masked" false o.Campaign.masked
      end)
    r.Campaign.outcomes;
  check "nothing masked" 0 r.Campaign.masked_trials

let fault_of_string_parses_and_rejects () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Fault.kind_to_string k ^ " roundtrips")
        true
        (Fault.of_string (Fault.kind_to_string k) = Ok k))
    Fault.all_kinds;
  match Fault.of_string "cosmic_ray" with
  | Ok _ -> Alcotest.fail "unknown kind accepted"
  | Error msg ->
      List.iter
        (fun k ->
          let name = Fault.kind_to_string k in
          Alcotest.(check bool)
            (Printf.sprintf "error lists %s" name)
            true
            (let n = String.length msg and m = String.length name in
             let rec go i =
               i + m <= n && (String.sub msg i m = name || go (i + 1))
             in
             go 0))
        Fault.all_kinds

let masking_voter_proved () =
  let reports = Masking.check_voter () in
  check "seven properties" 7 (List.length reports);
  Alcotest.(check bool) "all proved" true (Symbad_mc.Engine.all_proved reports)

let masking_lockstep_proved () =
  List.iter
    (fun (name, nl) ->
      Alcotest.(check bool)
        (name ^ " lock-step proved")
        true
        (Symbad_mc.Engine.all_proved (Masking.check_triplicated nl)))
    [
      ("counter", Symbad_hdl.Rtl_lib.counter ~width:4);
      ( "distance",
        Symbad_hdl.Rtl_lib.distance_datapath ~data_width:4 ~acc_width:8 () );
    ]

let voter_lints_clean () =
  let module Tmr = Symbad_hdl.Tmr in
  let r =
    Symbad_lint.Lint.run_netlist ~properties:(Tmr.voter_properties ())
      (Tmr.voter ~width:8 ())
  in
  check "no diagnostics" 0 (List.length r.Symbad_lint.Lint.diagnostics)

(* All fault kinds disabled: the campaign is exactly one control trial,
   and it must be byte-identical to the uninjected platform run at any
   seed and any pool width. *)
let qcheck_disabled_campaign_is_transparent =
  QCheck.Test.make ~name:"disabled campaign == uninjected run (any jobs/seed)"
    ~count:6
    QCheck.(pair (int_bound 1000) (int_range 1 3))
    (fun (seed, jobs) ->
      let r = small_campaign ~kinds:[] ~jobs ~seed () in
      r.Campaign.control_ok && r.Campaign.passed
      && List.length r.Campaign.outcomes = 1)

let suite =
  [
    Alcotest.test_case "recovery FSM proved" `Quick recovery_fsm_proved;
    Alcotest.test_case "recovery FSM bounds validated" `Quick
      recovery_fsm_bounds_validated;
    Alcotest.test_case "campaign deterministic across jobs" `Quick
      campaign_deterministic_across_jobs;
    Alcotest.test_case "tmr campaign deterministic across jobs" `Quick
      campaign_tmr_deterministic_across_jobs;
    Alcotest.test_case "tmr campaign masks at zero latency" `Quick
      campaign_tmr_masks_at_zero_latency;
    Alcotest.test_case "ecc double recovers by retry" `Quick
      campaign_ecc_double_recovers_by_retry;
    Alcotest.test_case "fault of_string parses and rejects" `Quick
      fault_of_string_parses_and_rejects;
    Alcotest.test_case "masking voter proved" `Quick masking_voter_proved;
    Alcotest.test_case "masking lock-step proved" `Quick
      masking_lockstep_proved;
    Alcotest.test_case "masking voter lints clean" `Quick voter_lints_clean;
    Alcotest.test_case "campaign recovers the winner" `Quick
      campaign_recovers_winner;
    Alcotest.test_case "undetected fault is a failure" `Quick
      campaign_undetected_fault_fails;
    Alcotest.test_case "budget degrades to inconclusive" `Quick
      campaign_budget_degrades_to_inconclusive;
    Alcotest.test_case "zero budget runs nothing" `Quick
      campaign_zero_budget_runs_nothing;
    QCheck_alcotest.to_alcotest qcheck_disabled_campaign_is_transparent;
  ]
