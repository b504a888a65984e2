(* Tests for the static-analysis subsystem: per-rule seeded-defect
   fixtures (one target that must fire each rule, one clean target that
   must not), the governed/parallel framework contracts (jobs-width
   invariant reports, governor skips recorded),
   the documented may/must-vs-dynamic-SymbC warning direction, and the
   satellite bugfixes (Expr.infer_width, early Simulator errors). *)

module Lint = Symbad_lint.Lint
module Diagnostic = Symbad_lint.Diagnostic
module Seeded = Symbad_lint.Seeded
module Expr = Symbad_hdl.Expr
module Bitvec = Symbad_hdl.Bitvec
module Netlist = Symbad_hdl.Netlist
module Simulator = Symbad_hdl.Simulator
module Json = Symbad_obs.Json
module Par = Symbad_par.Par
module Gov = Symbad_gov.Gov
module Budget = Symbad_gov.Budget
module Ast = Symbad_symbc.Ast
module Check = Symbad_symbc.Check

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let fired rule report =
  List.exists
    (fun (d : Diagnostic.t) -> String.equal d.Diagnostic.rule rule)
    report.Lint.diagnostics

(* --- netlist rules: each fixture fires exactly its rule -------------- *)

let netlist_fixtures_fire () =
  List.iter
    (fun (rule, nl) ->
      let r = Lint.run_netlist nl in
      check_bool (rule ^ " fires on its fixture") true (fired rule r))
    Seeded.fixtures

let clean_netlist_is_clean () =
  let r = Lint.run_netlist Seeded.clean in
  check_int "no diagnostics on the clean netlist" 0
    (List.length r.Lint.diagnostics);
  check_int "all netlist rules ran" (List.length Lint.netlist_rule_ids)
    (List.length r.Lint.rules_run)

(* Defects do not bleed across rules: the width fixture must not fire
   comb-loop, the loop fixture must not fire width (no cascades). *)
let no_cross_fire () =
  let r = Lint.run_netlist Seeded.width_mismatch in
  check_bool "width fixture: no comb-loop" false (fired "net.comb-loop" r);
  let r = Lint.run_netlist Seeded.comb_loop in
  check_bool "loop fixture: no width cascade" false (fired "net.width" r);
  check_bool "loop fixture: fires comb-loop" true (fired "net.comb-loop" r)

let demo_reports_all_three () =
  let r = Lint.run_netlist Seeded.demo in
  List.iter
    (fun rule -> check_bool (rule ^ " on demo") true (fired rule r))
    [ "net.comb-loop"; "net.width"; "net.multi-driven" ];
  check_bool "demo has errors" true (Lint.errors r >= 3)

(* Properties extend the cone of influence: a register referenced only
   by a property is not unused. *)
let properties_extend_cone () =
  let nl =
    Netlist.make ~name:"prop_cone"
      ~inputs:[ ("d", 4) ]
      ~registers:
        [
          {
            Netlist.name = "shadow";
            width = 4;
            init = Bitvec.zero ~width:4;
            next = Expr.input "d";
          };
        ]
      ~outputs:[ ("d", Expr.input "d") ]
  in
  let without = Lint.run_netlist nl in
  check_bool "unused without property" true (fired "net.unused" without);
  let with_prop =
    Lint.run_netlist
      ~properties:
        [ ("shadow_bounded", Expr.ule (Expr.reg "shadow") (Expr.input "d")) ]
      nl
  in
  check_bool "property keeps the register live" false
    (fired "net.unused" with_prop)

(* Primed property reads resolve to the base register. *)
let primed_property_reads () =
  let r =
    Lint.run_netlist
      ~properties:
        [ ("acc_step", Expr.ule (Expr.reg "acc") (Expr.reg "acc'")) ]
      Seeded.clean
  in
  check_int "primed property is clean" 0 (List.length r.Lint.diagnostics)

let vacuous_property_flagged () =
  let never = Expr.const ~width:1 0 in
  let r =
    Lint.run_netlist
      ~properties:
        [
          ("vacuous", Expr.or_ (Expr.not_ never) (Expr.reg "acc"));
          ("wide", Expr.reg "acc");
        ]
      Seeded.clean
  in
  check_bool "vacuous antecedent fires dead-logic" true
    (fired "net.dead-logic" r);
  check_bool "non-1-width property fires width" true (fired "net.width" r)

(* --- program rules --------------------------------------------------- *)

let program_fixtures_fire () =
  List.iter
    (fun (rule, p) ->
      let r = Lint.run_program Seeded.ci p in
      check_bool (rule ^ " fires on its fixture") true (fired rule r))
    Seeded.program_fixtures;
  let r = Lint.run_cfg Seeded.ci Seeded.cfg_unreachable in
  check_bool "cfg.unreachable-config fires on the hand-built CFG" true
    (fired "cfg.unreachable-config" r)

let clean_program_is_clean () =
  let r = Lint.run_program Seeded.ci Seeded.program_clean in
  check_int "no diagnostics on the clean program" 0
    (List.length r.Lint.diagnostics)

(* The documented warning direction: on a partially-loaded path the
   static may/must analysis warns (never errors), while dynamic SymbC
   finds the concrete counterexample.  The static pass must never be
   *more* optimistic than SymbC: a lint-clean program is dynamically
   consistent. *)
let warning_direction_vs_symbc () =
  let p = Seeded.program_maybe_unloaded in
  let r = Lint.run_program Seeded.ci p in
  check_int "static: no errors" 0 (Lint.errors r);
  check_bool "static: warns maybe-unloaded" true (fired "cfg.maybe-unloaded" r);
  (match Check.check Seeded.ci p with
  | Check.Inconsistent cex ->
      check_str "dynamic: the same call fails" "edge" cex.Check.failing_call
  | Check.Consistent _ -> Alcotest.fail "SymbC should find the unloaded path");
  let r = Lint.run_program Seeded.ci Seeded.program_clean in
  check_int "clean program: no diagnostics" 0 (List.length r.Lint.diagnostics);
  match Check.check Seeded.ci Seeded.program_clean with
  | Check.Consistent _ -> ()
  | Check.Inconsistent _ -> Alcotest.fail "lint-clean program must be consistent"

let never_loaded_is_error () =
  let r = Lint.run_program Seeded.ci Seeded.program_never_loaded in
  check_bool "never-loaded fires" true (fired "cfg.never-loaded" r);
  check_bool "never-loaded is an error" true (Lint.errors r >= 1)

(* --- framework contracts --------------------------------------------- *)

let unknown_rule_rejected () =
  match Lint.run_netlist ~rules:[ "net.typo" ] Seeded.clean with
  | _ -> Alcotest.fail "unknown rule id must be rejected"
  | exception Invalid_argument _ -> ()

let governor_skips_recorded () =
  let gov = Gov.create (Budget.make ~patterns:3 ()) in
  let r = Lint.run_netlist ~gov Seeded.demo in
  check_int "three rules afforded" 3 (List.length r.Lint.rules_run);
  check_int "rest recorded as skipped"
    (List.length Lint.netlist_rule_ids - 3)
    (List.length r.Lint.skipped_rules);
  (* allowance is read once before the fan-out: same skips at width 4 *)
  Par.with_pool ~jobs:4 (fun pool ->
      let gov = Gov.create (Budget.make ~patterns:3 ()) in
      let r4 = Lint.run_netlist ~pool ~gov Seeded.demo in
      check_str "same report at jobs 4"
        (Json.to_string (Lint.to_json r))
        (Json.to_string (Lint.to_json r4)))

(* qcheck: reports are jobs-width invariant — the JSON digest at any
   pool width equals the sequential one, for every fixture. *)
let qcheck_jobs_invariant =
  let targets =
    Array.of_list
      (List.map snd Seeded.fixtures @ [ Seeded.clean; Seeded.demo ])
  in
  QCheck.Test.make ~count:20 ~name:"lint report is jobs-width invariant"
    QCheck.(pair (int_range 0 (Array.length targets - 1)) (int_range 2 4))
    (fun (i, jobs) ->
      let digest nl pool =
        Digest.to_hex
          (Digest.string (Json.to_string (Lint.to_json (Lint.run_netlist ?pool nl))))
      in
      let seq = digest targets.(i) None in
      Par.with_pool ~jobs (fun pool ->
          String.equal seq (digest targets.(i) (Some pool))))

let merge_reports () =
  let a = Lint.run_netlist Seeded.width_mismatch in
  let b = Lint.run_program Seeded.ci Seeded.program_never_loaded in
  let m = Lint.merge ~target:"both" [ a; b ] in
  check_bool "merged keeps netlist finding" true (fired "net.width" m);
  check_bool "merged keeps program finding" true (fired "cfg.never-loaded" m);
  check_int "rule lists unioned"
    (List.length Lint.netlist_rule_ids + List.length Lint.program_rule_ids)
    (List.length m.Lint.rules_run)

let json_roundtrips () =
  let r = Lint.run_netlist Seeded.demo in
  match Json.parse (Json.to_string (Lint.to_json r)) with
  | Error e -> Alcotest.fail e
  | Ok j ->
      check_bool "errors field present" true
        (Json.member "errors" j |> Option.is_some);
      let diags =
        Json.member "diagnostics" j |> Option.get |> Json.to_list |> Option.get
      in
      check_int "diagnostic count matches" (List.length r.Lint.diagnostics)
        (List.length diags)

(* --- satellite bugfixes ---------------------------------------------- *)

let infer_width_result () =
  let iw = function "a" -> Some 4 | _ -> None in
  let rw = function "r" -> Some 4 | _ -> None in
  (match
     Expr.infer_width ~input_width:iw ~reg_width:rw
       (Expr.add (Expr.input "a") (Expr.reg "r"))
   with
  | Ok w -> check_int "inferred" 4 w
  | Error e -> Alcotest.fail e);
  (match
     Expr.infer_width ~input_width:iw ~reg_width:rw
       (Expr.add (Expr.input "a") (Expr.const ~width:8 1))
   with
  | Ok _ -> Alcotest.fail "mismatch must be an Error"
  | Error msg ->
      check_bool "message names the operator and widths" true
        (String.length msg > 0
        && String.equal msg "+ width mismatch 4 vs 8"));
  match
    Expr.infer_width ~input_width:iw ~reg_width:rw (Expr.input "ghost")
  with
  | Ok _ -> Alcotest.fail "undeclared input must be an Error"
  | Error msg -> check_str "undeclared named" "undeclared input ghost" msg

let simulator_rejects_malformed () =
  match Simulator.create Seeded.width_mismatch with
  | _ -> Alcotest.fail "Simulator.create must reject a width mismatch"
  | exception Invalid_argument msg ->
      check_bool "error names the register" true
        (String.length msg >= 4
        && String.sub msg 0 4 |> String.equal "Simu")

(* --- the repo corpus lints clean -------------------------------------

   Every netlist the repo builds, under every netlist rule but the
   exceptions documented here:
   - [distance_datapath_buggy] drops the [start] clear (the seeded
     memory-init bug), leaving [start] genuinely unused — net.unused is
     the symptom of the bug, so it is left out, not fixed;
   - net.range is left out on the datapaths whose wraparound is
     intentional or guarded: [counter] wraps by definition, [distance]
     computes two's-complement differences before squaring (the wrap
     IS the negation), [fifo_ctrl]'s count is inc/dec-guarded by
     full/empty (provable via --escalate, beyond the static interval),
     [recovery]'s retry and no-op counters are compare-guarded
     (escalation proves both), [root]'s num update wraps by
     two's-complement construction (escalation returns the concrete
     wrap trace) and [argmin]'s accumulation has no proof within
     k=12 (escalation reports it inconclusive).  Each stays
     escalatable on demand. *)
let repo_corpus_is_clean () =
  let module R = Symbad_hdl.Rtl_lib in
  let rules_but except =
    List.filter (fun id -> not (List.mem id except)) Lint.netlist_rule_ids
  in
  let clean ?(except = []) name nl =
    let r = Lint.run_netlist ~rules:(rules_but except) nl in
    check_int (name ^ " lints clean") 0 (List.length r.Lint.diagnostics)
  in
  clean "counter" ~except:[ "net.range" ] (R.counter ~width:4);
  clean "distance" ~except:[ "net.range" ] (R.distance_datapath ());
  clean "distance_buggy" ~except:[ "net.unused"; "net.range" ]
    (R.distance_datapath_buggy ());
  clean "wrapper" (R.handshake_wrapper ());
  clean "wrapper_buggy" (R.handshake_wrapper_buggy ());
  clean "fifo_ctrl" ~except:[ "net.range" ] (R.fifo_ctrl ());
  clean "fifo_ctrl_buggy" ~except:[ "net.range" ] (R.fifo_ctrl_buggy ());
  clean "argmin" ~except:[ "net.range" ] (R.argmin_datapath ());
  (* verification-only registers (ROOT's [nsave], recovery's [nonop])
     are live only through property cones: these two lint clean WITH
     their properties, and warn net.unused without them *)
  let pairs props =
    List.map (fun p -> (Symbad_mc.Prop.name p, Symbad_mc.Prop.formula p)) props
  in
  let clean_with_props ~except name nl props =
    let bare = Lint.run_netlist nl in
    check_bool
      (name ^ " warns net.unused without properties")
      true
      (fired "net.unused" bare);
    let r =
      Lint.run_netlist ~rules:(rules_but except) ~properties:(pairs props) nl
    in
    check_int (name ^ " lints clean with properties") 0
      (List.length r.Lint.diagnostics)
  in
  clean_with_props "root" ~except:[ "net.range" ] (R.root_datapath ())
    (Symbad_core.Level4.root_properties ());
  let module Recovery = Symbad_resil.Recovery in
  let nl = Recovery.netlist () in
  clean_with_props "recovery_ctrl" ~except:[ "net.range" ] nl
    (Recovery.properties nl)

(* --- the semantic (abstract-interpretation) engine ------------------- *)

module VD = Symbad_lint.Value_domain
module Absint = Symbad_lint.Netlist_absint
module Sarif = Symbad_lint.Sarif

(* qcheck soundness: on random small netlists the abstract fixpoint
   over-approximates everything 50 simulated cycles can reach — every
   concrete register value is a member of its abstraction.  This is
   the one property the whole semantic rule family leans on. *)
let qcheck_absint_sound =
  QCheck.Test.make ~count:60
    ~name:"abstract fixpoint over-approximates 50 simulated cycles"
    (QCheck.make (Netlist_gen.gen ~cycles:50))
    (fun (nl, width, stimulus) ->
      match Absint.analyze nl with
      | None -> false (* the generator only builds sound netlists *)
      | Some a ->
          let covered sim =
            List.for_all
              (fun (name, v) ->
                match Absint.reg_value a name with
                | None -> false
                | Some d -> VD.mem (Bitvec.to_int v) d)
              (Simulator.state sim)
          in
          let sim = Simulator.create nl in
          covered sim
          && List.for_all
               (fun ab ->
                 Simulator.step sim ~inputs:(Netlist_gen.inputs ~width ab);
                 covered sim)
               stimulus)

(* Every netlist the flow verifies (the level-4 modules and the
   recovery controller) reaches an abstract fixpoint with every register
   abstracted. *)
let corpus_reaches_fixpoint () =
  List.iter
    (fun nl ->
      let name = Netlist.name nl in
      match Absint.analyze nl with
      | None -> Alcotest.fail (name ^ ": no abstract fixpoint")
      | Some a ->
          List.iter
            (fun (r : Netlist.register) ->
              check_bool
                (Printf.sprintf "%s.%s abstracted" name r.Netlist.name)
                true
                (Absint.reg_value a r.Netlist.name <> None))
            (Netlist.registers nl))
    (List.map
       (fun (m : Symbad_core.Level4.rtl_module) -> m.Symbad_core.Level4.netlist)
       (Symbad_core.Level4.modules ())
    @ [ Symbad_resil.Recovery.netlist () ])

(* The escalation round-trip on the seeded fixture: one warning is
   disproved (the accumulator wraps — promoted to error, two-frame
   counterexample attached), one is proved (d + ~d never carries —
   demoted to info), nothing is dropped.  The lint run pairs each
   warning with its obligation, a rule that did not run leaves none,
   and a second escalation dispatches nothing: its governor grows no
   row below the root. *)
let escalation_roundtrip () =
  let before = Lint.run_netlist Seeded.escalation in
  check_int "two warnings before" 2 (Lint.warnings before);
  check_int "no errors before" 0 (Lint.errors before);
  check_bool "each obligation sits next to its warning" true
    (List.length before.Lint.obligations = 2
    && List.for_all
         (fun (d, _) -> List.memq d before.Lint.diagnostics)
         before.Lint.obligations);
  let width_only = Lint.run_netlist ~rules:[ "net.width" ] Seeded.escalation in
  check_int "no obligation without its rule" 0
    (List.length width_only.Lint.obligations);
  let after = Lint.escalate Seeded.escalation before in
  let gov = Gov.create (Budget.make ~conflicts:1_000 ()) in
  let again = Lint.escalate ~gov Seeded.escalation after in
  check_int "a second escalation dispatches nothing" 1
    (List.length (Gov.waterfall gov));
  check_str "and leaves the report as it was"
    (Json.to_string (Lint.to_json after))
    (Json.to_string (Lint.to_json again));
  check_int "nothing dropped" 2 (List.length after.Lint.diagnostics);
  check_int "exactly one promoted error" 1 (Lint.errors after);
  check_int "no warnings left" 0 (Lint.warnings after);
  let status s (d : Diagnostic.t) =
    match d.Diagnostic.discharged with
    | Some g -> g.Diagnostic.status = s
    | None -> false
  in
  let promoted =
    List.filter
      (fun (d : Diagnostic.t) ->
        d.Diagnostic.severity = Diagnostic.Error
        && status Diagnostic.Disproved d)
      after.Lint.diagnostics
  in
  let proved =
    List.filter
      (fun (d : Diagnostic.t) ->
        d.Diagnostic.severity = Diagnostic.Info && status Diagnostic.Proved d)
      after.Lint.diagnostics
  in
  check_int "one disproved" 1 (List.length promoted);
  check_int "one proved" 1 (List.length proved);
  match promoted with
  | [ d ] -> (
      match d.Diagnostic.discharged with
      | Some g ->
          check_bool "counterexample attached" true
            (g.Diagnostic.counterexample <> None)
      | None -> Alcotest.fail "discharge missing")
  | _ -> Alcotest.fail "expected exactly one promoted diagnostic"

(* The governor is escalation's only bound: an exhausted one discharges
   every obligation as inconclusive and moves no severity. *)
let escalation_exhausted_gov_inconclusive () =
  let before = Lint.run_netlist Seeded.escalation in
  let gov = Gov.create (Budget.make ~conflicts:0 ()) in
  let after = Lint.escalate ~gov Seeded.escalation before in
  check_int "nothing dropped" 2 (List.length after.Lint.diagnostics);
  check_int "warnings kept" 2 (Lint.warnings after);
  check_int "no errors" 0 (Lint.errors after);
  check_bool "every discharge inconclusive" true
    (List.for_all
       (fun (d : Diagnostic.t) ->
         match d.Diagnostic.discharged with
         | Some g -> g.Diagnostic.status = Diagnostic.Inconclusive
         | None -> false)
       after.Lint.diagnostics)

(* Escalated reports are byte-identical at any pool width: the JSON
   digest at jobs 1, 2 and 4 equals the sequential one. *)
let escalation_jobs_invariant () =
  let digest pool =
    let r = Lint.run_netlist ?pool Seeded.escalation in
    Digest.to_hex
      (Digest.string
         (Json.to_string (Lint.to_json (Lint.escalate ?pool Seeded.escalation r))))
  in
  let seq = digest None in
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun pool ->
          check_str
            (Printf.sprintf "identical at jobs %d" jobs)
            seq
            (digest (Some pool))))
    [ 1; 2; 4 ]

(* --- schedule rules over tenant sets ---------------------------------- *)

let sched_conflict () =
  let r = Lint.run_tenants Seeded.ci Seeded.tenants_conflict in
  check_bool "context-conflict fires" true (fired "sched.context-conflict" r);
  check_int "interference is a warning, not an error" 0 (Lint.errors r);
  (* both directions of the pair are reported *)
  check_int "both tenant orders reported" 2
    (List.length
       (List.filter
          (fun (d : Diagnostic.t) ->
            String.equal d.Diagnostic.rule "sched.context-conflict")
          r.Lint.diagnostics));
  let r = Lint.run_tenants Seeded.ci Seeded.tenants_clean in
  check_int "same-configuration tenants are clean" 0
    (List.length r.Lint.diagnostics)

let sched_wcrt () =
  let r =
    Lint.run_tenants ~deadline_ns:1_500_000 Seeded.ci
      Seeded.tenant_wcrt_unbounded
  in
  check_bool "loop-bound reconfiguration is unbounded" true
    (fired "sched.wcrt" r);
  check_bool "wcrt violation is an error" true (Lint.errors r >= 1);
  (* 2 reconfigurations at the 1 ms default cost = 2 ms WCRT *)
  let r =
    Lint.run_tenants ~deadline_ns:1_500_000 Seeded.ci
      Seeded.tenant_wcrt_straight
  in
  check_bool "2 ms over a 1.5 ms deadline fires" true (fired "sched.wcrt" r);
  let r =
    Lint.run_tenants ~deadline_ns:3_000_000 Seeded.ci
      Seeded.tenant_wcrt_straight
  in
  check_bool "2 ms under a 3 ms deadline is clean" false (fired "sched.wcrt" r);
  (* without a deadline the rule has nothing to compare against *)
  let r = Lint.run_tenants Seeded.ci Seeded.tenant_wcrt_unbounded in
  check_bool "no deadline, no wcrt finding" false (fired "sched.wcrt" r)

(* --- export formats ---------------------------------------------------- *)

(* Diagnostic JSON is versioned: schema_version at the report top level
   and on every diagnostic, and the severity order is centralised (the
   report lists errors before warnings before infos). *)
let schema_version_present () =
  let r = Lint.run_netlist Seeded.demo in
  let j = Json.parse_exn (Json.to_string (Lint.to_json r)) in
  let version node =
    Option.bind (Json.member "schema_version" node) Json.to_number
  in
  check_bool "top-level schema_version" true
    (version j = Some (float_of_int Diagnostic.schema_version));
  let diags = Json.member "diagnostics" j |> Option.get |> Json.to_list in
  List.iter
    (fun d ->
      check_bool "per-diagnostic schema_version" true
        (version d = Some (float_of_int Diagnostic.schema_version)))
    (Option.get diags);
  let m = Lint.merge ~target:"m" [ Lint.run_netlist Seeded.range; r ] in
  let sevs =
    List.map (fun (d : Diagnostic.t) -> d.Diagnostic.severity)
      m.Lint.diagnostics
  in
  check_bool "merged diagnostics sorted gravest first" true
    (List.sort compare sevs = sevs)

let sarif_export () =
  let before = Lint.run_netlist Seeded.escalation in
  let r = Lint.escalate Seeded.escalation before in
  let j = Json.parse_exn (Json.to_string (Sarif.of_report r)) in
  check_bool "version 2.1.0" true
    (Option.bind (Json.member "version" j) Json.to_str = Some "2.1.0");
  let run =
    Json.member "runs" j |> Option.get |> Json.to_list |> Option.get |> List.hd
  in
  check_bool "driver named" true
    (let driver =
       Option.bind (Json.member "tool" run) (Json.member "driver")
     in
     Option.bind driver (fun d -> Option.bind (Json.member "name" d) Json.to_str)
     = Some "symbad-lint");
  let results =
    Json.member "results" run |> Option.get |> Json.to_list |> Option.get
  in
  check_int "one result per diagnostic" (List.length r.Lint.diagnostics)
    (List.length results);
  let levels =
    List.filter_map (fun x -> Option.bind (Json.member "level" x) Json.to_str)
      results
  in
  (* Error maps to "error", the proved Info to SARIF's "note" *)
  check_bool "severities map to SARIF levels" true
    (List.mem "error" levels && List.mem "note" levels);
  check_bool "the discharge survives in the properties bag" true
    (List.exists
       (fun x ->
         Option.bind (Json.member "properties" x) (Json.member "counterexample")
         <> None)
       results)

let suite =
  [
    Alcotest.test_case "netlist fixtures fire their rules" `Quick
      netlist_fixtures_fire;
    Alcotest.test_case "repo corpus lints clean" `Quick repo_corpus_is_clean;
    Alcotest.test_case "clean netlist is clean" `Quick clean_netlist_is_clean;
    Alcotest.test_case "no cross-rule cascades" `Quick no_cross_fire;
    Alcotest.test_case "demo reports loop+width+multi-driven" `Quick
      demo_reports_all_three;
    Alcotest.test_case "properties extend the cone" `Quick
      properties_extend_cone;
    Alcotest.test_case "primed property reads resolve" `Quick
      primed_property_reads;
    Alcotest.test_case "vacuous/wide properties flagged" `Quick
      vacuous_property_flagged;
    Alcotest.test_case "program fixtures fire their rules" `Quick
      program_fixtures_fire;
    Alcotest.test_case "clean program is clean" `Quick clean_program_is_clean;
    Alcotest.test_case "warning direction vs dynamic SymbC" `Quick
      warning_direction_vs_symbc;
    Alcotest.test_case "never-loaded is an error" `Quick never_loaded_is_error;
    Alcotest.test_case "unknown rule ids rejected" `Quick unknown_rule_rejected;
    Alcotest.test_case "governor skips are recorded" `Quick
      governor_skips_recorded;
    QCheck_alcotest.to_alcotest qcheck_jobs_invariant;
    QCheck_alcotest.to_alcotest qcheck_absint_sound;
    Alcotest.test_case "corpus reaches an abstract fixpoint" `Quick
      corpus_reaches_fixpoint;
    Alcotest.test_case "escalation round-trip on the seeded fixture" `Quick
      escalation_roundtrip;
    Alcotest.test_case "escalation is jobs-width invariant" `Quick
      escalation_jobs_invariant;
    Alcotest.test_case "escalation under exhausted governor" `Quick
      escalation_exhausted_gov_inconclusive;
    Alcotest.test_case "sched.context-conflict on interleaved tenants" `Quick
      sched_conflict;
    Alcotest.test_case "sched.wcrt vs the admission deadline" `Quick sched_wcrt;
    Alcotest.test_case "diagnostic JSON carries schema_version" `Quick
      schema_version_present;
    Alcotest.test_case "SARIF 2.1.0 export" `Quick sarif_export;
    Alcotest.test_case "merge unions reports" `Quick merge_reports;
    Alcotest.test_case "report JSON parses back" `Quick json_roundtrips;
    Alcotest.test_case "Expr.infer_width is total" `Quick infer_width_result;
    Alcotest.test_case "Simulator.create rejects malformed netlists" `Quick
      simulator_rejects_malformed;
  ]
