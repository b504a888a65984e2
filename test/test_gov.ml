(* Tests for the resource governor: budget split/slice arithmetic,
   hierarchical charge propagation, retry dispatch, the
   zero-budget degradation contract of every engine (inconclusive with
   partial data, fast, never raising), governed-flow determinism across
   pool widths, and the qcheck monotonicity properties (shrinking a
   budget may weaken an MC verdict to inconclusive or a PCC fault to
   unresolved, never flip either). *)

open Symbad_core
module Gov = Symbad_gov.Gov
module Budget = Symbad_gov.Budget
module Degrade = Symbad_gov.Degrade
module Par = Symbad_par.Par

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- budget arithmetic --- *)

let budget_split_sums () =
  List.iter
    (fun (total, n) ->
      let shares = Budget.split ~n (Budget.make ~conflicts:total ~patterns:total ()) in
      check_int "share count" n (List.length shares);
      let sum axis =
        List.fold_left (fun a b -> a + Option.get (axis b)) 0 shares
      in
      check_int "conflicts sum exactly" total (sum (fun b -> b.Budget.conflicts));
      check_int "patterns sum exactly" total (sum (fun b -> b.Budget.patterns));
      let vals = List.map (fun b -> Option.get b.Budget.conflicts) shares in
      check_bool "near-equal shares" true
        (List.fold_left max 0 vals - List.fold_left min max_int vals <= 1))
    [ (100, 7); (3, 5); (0, 4); (1, 1) ];
  Alcotest.check_raises "n=0 rejected"
    (Invalid_argument "Budget.split: n must be >= 1") (fun () ->
      ignore (Budget.split ~n:0 Budget.unlimited));
  List.iter
    (fun b -> check_bool "unlimited stays unlimited" true (b.Budget.conflicts = None))
    (Budget.split ~n:3 Budget.unlimited)

let budget_slice_scales () =
  let b = Budget.make ~conflicts:100 ~patterns:50 () in
  let s = Budget.slice ~fraction:0.25 b in
  check_int "conflicts scaled" 25 (Option.get s.Budget.conflicts);
  check_int "patterns scaled" 12 (Option.get s.Budget.patterns);
  check_int "fraction clamped low" 0
    (Option.get (Budget.slice ~fraction:(-1.) b).Budget.conflicts);
  check_int "fraction clamped high" 100
    (Option.get (Budget.slice ~fraction:5. b).Budget.conflicts)

(* --- hierarchical charge accounting --- *)

let charges_propagate () =
  let g = Gov.create ~label:"t" (Budget.make ~conflicts:100 ~patterns:10 ()) in
  match Gov.split g 2 with
  | [ a; b ] ->
      check_int "child share" 50 (Option.get (Gov.conflicts_left a));
      Gov.charge_conflicts a 30;
      check_int "child spent" 20 (Option.get (Gov.conflicts_left a));
      check_int "parent sees child spend" 70 (Option.get (Gov.conflicts_left g));
      check_int "sibling untouched" 50 (Option.get (Gov.conflicts_left b));
      Gov.charge_conflicts b 60;
      check_int "overspend floors at 0" 0 (Option.get (Gov.conflicts_left b));
      check_int "parent after both" 10 (Option.get (Gov.conflicts_left g));
      Gov.charge_conflicts g (-5);
      check_int "negative charge ignored" 10 (Option.get (Gov.conflicts_left g))
  | _ -> Alcotest.fail "split 2 shape"

let slice_leaves_rest_in_parent () =
  let g = Gov.create (Budget.make ~conflicts:100 ()) in
  let s = Gov.slice ~fraction:0.5 g in
  check_int "slice share" 50 (Option.get (Gov.conflicts_left s));
  Gov.charge_conflicts s 10;
  (* sequential split: only what the slice SPENDS leaves the parent *)
  check_int "unspent flows back" 90 (Option.get (Gov.conflicts_left g))

(* --- exhaustion --- *)

let exhaustion_reasons () =
  let g = Gov.create (Budget.make ~conflicts:1 ()) in
  check_bool "fresh governor has budget" true (Gov.exhaustion g = None);
  Gov.charge_conflicts g 1;
  check_bool "conflicts exhausted" true
    (Gov.exhaustion g = Some Degrade.Conflicts);
  let g = Gov.create (Budget.make ~patterns:0 ()) in
  check_bool "patterns exhausted" true
    (Gov.exhaustion g = Some Degrade.Patterns);
  let g = Gov.create (Budget.make ~deadline_s:0.0 ()) in
  check_bool "instant deadline exhausted" true
    (Gov.exhaustion g = Some Degrade.Deadline);
  check_bool "unlimited never exhausts" false (Gov.out_of_budget Gov.unlimited)

(* --- portfolio retry --- *)

let with_retry_semantics () =
  let g = Gov.create (Budget.make ~conflicts:1000 ~retries:3 ()) in
  let attempts = ref [] in
  let r =
    Gov.with_retry g
      ~inconclusive:(fun x -> x < 0)
      (fun ~attempt ->
        attempts := attempt :: !attempts;
        if attempt < 2 then -1 else attempt)
  in
  check_int "returns first conclusive result" 2 r;
  Alcotest.(check (list int)) "attempt numbers" [ 0; 1; 2 ] (List.rev !attempts);
  let g = Gov.create (Budget.make ~conflicts:1000 ~retries:2 ()) in
  let n = ref 0 in
  ignore
    (Gov.with_retry g
       ~inconclusive:(fun _ -> true)
       (fun ~attempt:_ -> incr n; -1));
  check_int "retry count caps attempts" 3 !n;
  let g = Gov.create (Budget.make ~conflicts:0 ~retries:5 ()) in
  let n = ref 0 in
  ignore
    (Gov.with_retry g
       ~inconclusive:(fun _ -> true)
       (fun ~attempt:_ -> incr n; -1));
  check_int "no retry without budget" 1 !n

(* --- zero-budget engine degradation: inconclusive, partial, fast --- *)

let zero () = Gov.create ~label:"zero" (Budget.make ~conflicts:0 ~patterns:0 ())

let within_1s what f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  check_bool (what ^ " degrades within 1s") true (Unix.gettimeofday () -. t0 < 1.0);
  r

let fifo () = Symbad_hdl.Rtl_lib.fifo_ctrl ~addr_width:2 ()

let fifo_prop f =
  let module E = Symbad_hdl.Expr in
  let module P = Symbad_mc.Prop in
  P.make ~name:"not_full_and_empty"
    (E.not_ (E.and_ (P.output f "full") (P.output f "empty")))

let engines_degrade_instantly () =
  let f = fifo () in
  let prop = fifo_prop f in
  (match
     within_1s "sat" (fun () ->
         let s = Symbad_sat.Solver.create 2 in
         Symbad_sat.Solver.add_clause s [ 1; 2 ];
         Symbad_sat.Solver.solve ~gov:(zero ()) s)
   with
  | Symbad_sat.Solver.Unknown -> ()
  | _ -> Alcotest.fail "sat: expected Unknown");
  (let module Session = Symbad_mc.Session in
   let session = Session.create f prop in
   match
     within_1s "bmc" (fun () -> Session.bmc ~gov:(zero ()) session ~depth:8)
   with
   | Session.Base_unknown ->
       check_int "bmc: nothing unrolled" 0 (Session.base_nvars session)
   | _ -> Alcotest.fail "bmc: expected Base_unknown");
  (let r = within_1s "mc engine" (fun () -> Symbad_mc.Engine.check ~gov:(zero ()) f prop) in
   match r.Symbad_mc.Engine.verdict with
   | Symbad_mc.Engine.Unknown { reason } ->
       check_bool "mc engine: governor reason" true
         (String.length reason >= 9 && String.sub reason 0 9 = "governor:")
   | _ -> Alcotest.fail "mc engine: expected Unknown");
  check_int "random atpg: zero patterns" 0
    (List.length
       (within_1s "random atpg" (fun () ->
            Symbad_atpg.Random_engine.generate ~gov:(zero ()) ~count:64
              (Symbad_atpg.Models.root ()))));
  check_int "genetic atpg: zero patterns" 0
    (List.length
       (within_1s "genetic atpg" (fun () ->
            Symbad_atpg.Genetic_engine.generate ~gov:(zero ())
              (Symbad_atpg.Models.root ()))));
  let r = within_1s "pcc" (fun () -> Symbad_pcc.Pcc.run ~gov:(zero ()) ~depth:8 f [ prop ]) in
  check_bool "pcc: partial report still lists faults" true
    (r.Symbad_pcc.Pcc.faults <> []);
  check_bool "pcc: every fault unresolved" true
    (List.for_all
       (fun fr -> fr.Symbad_pcc.Pcc.status = Symbad_pcc.Pcc.Unresolved)
       r.Symbad_pcc.Pcc.faults)

let lpv_degrades () =
  let cs = Face_app.case_study Face_app.smoke_workload in
  let graph = Lazy.force cs.graph and mapping = Lazy.force cs.mapping2 in
  let profile = (Lazy.force cs.level1).Level1.profile in
  let timing = Lpv_bridge.default_timing and deadline_ns = Face_app.deadline_ns in
  (match within_1s "deadlock" (fun () -> Lpv_bridge.check_deadlock ~gov:(zero ()) graph) with
  | Symbad_lpv.Deadlock.Not_analyzable _ -> ()
  | _ -> Alcotest.fail "deadlock: expected Not_analyzable");
  (match
     within_1s "timing" (fun () ->
         Symbad_lpv.Timing.min_cycle_ratio ~gov:(zero ())
           (Lpv_bridge.net_of graph))
   with
  | Symbad_lpv.Timing.Not_analyzable _ -> ()
  | _ -> Alcotest.fail "timing: expected Not_analyzable");
  (match
     within_1s "deadline" (fun () ->
         Lpv_bridge.check_deadline ~deadline_ns ~timing ~mapping ~profile
           ~gov:(zero ()) graph)
   with
  | Symbad_lpv.Timing.Not_analyzable _, false -> ()
  | _ -> Alcotest.fail "deadline: expected (Not_analyzable, false)");
  check_bool "dimension_fifos: no capacity" true
    (within_1s "fifo dimensioning" (fun () ->
         Lpv_bridge.dimension_fifos ~deadline_ns ~timing ~mapping ~profile
           ~gov:(zero ()) graph)
    = None)

(* --- the governed flow: degrades, and identically at any width --- *)

let flow_zero_budget_deterministic () =
  let run jobs =
    Par.with_pool ~jobs (fun pool ->
        Flow.run ~pool ~workload:Face_app.smoke_workload
          ~gov:
            (Gov.create ~label:"flow" (Budget.make ~conflicts:0 ~patterns:0 ()))
          ())
  in
  let r1 = within_1s "zero-budget flow" (fun () -> run 1) in
  check_bool "flow degrades to inconclusive checks" true
    (List.exists
       (fun l ->
         List.exists
           (fun v ->
             match v.Verdict.outcome with
             | Verdict.Inconclusive _ -> true
             | _ -> false)
           l.Flow.verifications)
       r1.Flow.levels);
  check_str "degraded report identical at jobs=1 and jobs=2"
    (Flow.to_json ~timings:false r1)
    (Flow.to_json ~timings:false (run 2))

(* --- qcheck: a budget can only weaken a verdict, never flip it --- *)

let qcheck_budget_monotone =
  let f = fifo () in
  let holds = fifo_prop f in
  let fails =
    (* empty is raised at reset: falsified at depth 0 under any budget
       big enough to reach the first SAT call *)
    let module E = Symbad_hdl.Expr in
    let module P = Symbad_mc.Prop in
    P.make ~name:"never_empty" (E.not_ (P.output f "empty"))
  in
  let baseline prop =
    (Symbad_mc.Engine.check f prop).Symbad_mc.Engine.verdict
  in
  let base_holds = baseline holds and base_fails = baseline fails in
  QCheck.Test.make ~name:"shrinking budget never flips a verdict" ~count:40
    QCheck.(pair bool (int_bound 2000))
    (fun (pick, allowance) ->
      let prop, base = if pick then (holds, base_holds) else (fails, base_fails) in
      let gov =
        Gov.create (Budget.make ~conflicts:allowance ~patterns:allowance ())
      in
      let v = (Symbad_mc.Engine.check ~gov f prop).Symbad_mc.Engine.verdict in
      match (v, base) with
      | Symbad_mc.Engine.Unknown _, _ -> true
      | Symbad_mc.Engine.Proved _, Symbad_mc.Engine.Proved _ -> true
      | Symbad_mc.Engine.Falsified _, Symbad_mc.Engine.Falsified _ -> true
      | _ -> false)

(* --- qcheck: a budget can only leave a PCC fault unresolved --- *)

let qcheck_pcc_budget_unresolved =
  let module Pcc = Symbad_pcc.Pcc in
  (* the refined plan of the E8 story: complete on the FIFO controller,
     so every detectable fault is covered when unlimited *)
  let statuses gov =
    List.map
      (fun fr -> fr.Pcc.status)
      (Pcc.run ?gov ~depth:8 Test_pcc.fifo Test_pcc.strong_props).Pcc.faults
  in
  let unlimited = statuses None in
  (* half the draws land below 300, where the per-fault shares are
     tight enough to run out inside a property check *)
  let allowances =
    QCheck.make ~print:string_of_int
      QCheck.Gen.(frequency [ (1, int_bound 300); (1, int_bound 5000) ])
  in
  QCheck.Test.make ~name:"budgeted PCC: unlimited status or unresolved"
    ~count:25 allowances
    (fun allowance ->
      let gov = Gov.create (Budget.make ~conflicts:allowance ()) in
      List.for_all2
        (fun s base -> s = base || s = Pcc.Unresolved)
        (statuses (Some gov)) unlimited)

(* --- the budget waterfall --- *)

(* the waterfall reads the tree's own counters: charges made from
   worker domains reach the root's subtree, and each row's own charge
   is its spend minus its children's *)
let waterfall_sums_match_spend () =
  let root =
    Gov.create ~label:"root" (Budget.make ~conflicts:10_000 ~patterns:10_000 ())
  in
  let children = Gov.split ~label:"work" root 4 in
  Par.with_pool ~jobs:3 (fun pool ->
      ignore
        (Par.map pool
           (fun (i, c) ->
             Gov.charge_conflicts c (10 * (i + 1));
             Gov.charge_patterns c (i + 1);
             i)
           (List.mapi (fun i c -> (i, c)) children)));
  Gov.charge_conflicts (Gov.slice ~label:"tail" ~fraction:0.5 root) 7;
  check_int "root conflicts spend" 107 (Gov.spent_conflicts root);
  let rows = Gov.waterfall root in
  (* root + 4 split children + 1 slice *)
  check_int "one waterfall row per node" 6 (List.length rows);
  let row label = List.find (fun (r : Gov.row) -> r.label = label) rows in
  check_int "root subtree includes every worker charge" 107
    (row "root").subtree_conflicts;
  check_int "root patterns subtree" (Gov.spent_patterns root)
    (row "root").subtree_patterns;
  check_int "root charges nothing itself" 0 (row "root").charged_conflicts;
  check_int "slice charge on its own row" 7 (row "root.tail").charged_conflicts;
  check_bool "waterfall order is deterministic" true
    (rows = Gov.waterfall root);
  (* concurrent registration on one parent: every job splits the same
     node, and a lost child would leave its charge on the parent's row *)
  let shared = Gov.create ~label:"shared" (Budget.make ~conflicts:10_000 ()) in
  Par.with_pool ~jobs:3 (fun pool ->
      ignore
        (Par.map pool
           (fun i ->
             List.iter
               (fun c -> Gov.charge_conflicts c 1)
               (Gov.split ~label:"job" shared 8);
             i)
           (List.init 16 Fun.id)));
  let rows = Gov.waterfall shared in
  check_int "one row per split label" 9 (List.length rows);
  check_bool "every split registered" true
    (List.for_all (fun (r : Gov.row) -> r.depth = 0 || r.created = 16) rows);
  check_int "shared subtree" 128 (List.hd rows).subtree_conflicts;
  check_int "shared charges nothing itself" 0 (List.hd rows).charged_conflicts

(* the shared ungoverned governor keeps no children *)
let unlimited_keeps_no_children () =
  ignore (Gov.split ~label:"w" Gov.unlimited 4);
  ignore (Gov.slice ~label:"s" ~fraction:0.5 Gov.unlimited);
  check_int "one row" 1 (List.length (Gov.waterfall Gov.unlimited))

let suite =
  [
    Alcotest.test_case "budget split sums exactly" `Quick budget_split_sums;
    Alcotest.test_case "budget slice scales and clamps" `Quick budget_slice_scales;
    Alcotest.test_case "charges propagate to ancestors" `Quick charges_propagate;
    Alcotest.test_case "slice leaves unspent budget in parent" `Quick
      slice_leaves_rest_in_parent;
    Alcotest.test_case "exhaustion reasons" `Quick exhaustion_reasons;
    Alcotest.test_case "with_retry dispatch semantics" `Quick with_retry_semantics;
    Alcotest.test_case "zero budget: engines degrade instantly" `Quick
      engines_degrade_instantly;
    Alcotest.test_case "zero budget: LPV not analyzable" `Quick lpv_degrades;
    Alcotest.test_case "zero-budget flow is deterministic" `Quick
      flow_zero_budget_deterministic;
    Alcotest.test_case "waterfall sums match governor spend" `Quick
      waterfall_sums_match_spend;
    Alcotest.test_case "unlimited keeps no children" `Quick
      unlimited_keeps_no_children;
    QCheck_alcotest.to_alcotest qcheck_budget_monotone;
    QCheck_alcotest.to_alcotest qcheck_pcc_budget_unresolved;
  ]
