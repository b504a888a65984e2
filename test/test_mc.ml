(* Tests for the model checker: BMC, k-induction, explicit-state, and
   the combined engine. *)

open Symbad_hdl
open Symbad_mc
module E = Expr

let check_bool = Alcotest.(check bool)

let fifo = Rtl_lib.fifo_ctrl ~addr_width:2 ()
let cw = 3
let depth = 4

let p_no_full_empty =
  Prop.make ~name:"not_full_and_empty"
    (E.not_ (E.and_ (Prop.output fifo "full") (Prop.output fifo "empty")))

let p_count_bound =
  Prop.make ~name:"count_le_depth"
    (E.ule (E.reg "count") (E.const ~width:cw depth))

let p_false =
  Prop.make ~name:"count_lt_2" (E.ult (E.reg "count") (E.const ~width:cw 2))

(* --- Prop --- *)

let prop_validation () =
  check_bool "width-1 ok" true
    (try ignore (Prop.validate fifo p_count_bound); true
     with Invalid_argument _ -> false);
  check_bool "wide formula rejected" true
    (try
       ignore (Prop.validate fifo (Prop.make ~name:"bad" (E.reg "count")));
       false
     with Invalid_argument _ -> true);
  check_bool "primed reg rejected in invariant" true
    (try
       ignore (Prop.validate fifo (Prop.make ~name:"bad" (E.eq (E.reg "count'") (E.reg "count"))));
       false
     with Invalid_argument _ -> true);
  check_bool "primed reg ok in step prop" true
    (try
       ignore
         (Prop.validate fifo
            (Prop.make_step ~name:"ok" (E.eq (E.reg "count'") (E.reg "count"))));
       true
     with Invalid_argument _ -> false)

let prop_next_rewrites () =
  let e = Prop.next (E.add (E.reg "count") (E.const ~width:cw 1)) in
  match e with
  | E.Binop (E.Add, E.Reg "count'", E.Const _) -> ()
  | _ -> Alcotest.fail "expected primed register"

(* --- BMC --- *)

let bmc ~depth p = Session.bmc (Session.create fifo p) ~depth

let bmc_finds_shallow_bug () =
  match bmc ~depth:6 p_false with
  | Session.Base_cex tr ->
      (* counter reaches 2 after two pushes: trace length 3 states *)
      Alcotest.(check int) "trace length" 3 (Trace.length tr)
  | _ -> Alcotest.fail "expected counterexample"

let bmc_holds_within_depth () =
  match bmc ~depth:6 p_count_bound with
  | Session.Base_holds -> ()
  | _ -> Alcotest.fail "expected hold"

let bmc_counterexample_is_concrete () =
  match bmc ~depth:6 p_false with
  | Session.Base_cex tr ->
      (* replay the trace inputs on the simulator and reconfirm *)
      let sim = Simulator.create fifo in
      List.iteri
        (fun i frame ->
          let regs =
            List.map
              (fun (r : Netlist.register) ->
                (r.Netlist.name,
                 Bitvec.to_int (List.assoc r.Netlist.name (Simulator.state sim))))
              (Netlist.registers fifo)
          in
          List.iter
            (fun (n, v) ->
              Alcotest.(check int) (Printf.sprintf "reg %s @%d" n i) v
                (List.assoc n frame.Trace.regs))
            regs;
          let inputs =
            List.map (fun (n, v) -> (n, Bitvec.make ~width:1 v))
              frame.Trace.inputs
          in
          Simulator.step sim ~inputs)
        tr
  | _ -> Alcotest.fail "expected counterexample"

(* --- k-induction --- *)

let induction_proves () =
  match Session.induction (Session.create fifo p_count_bound) 1 with
  | Session.Inductive -> ()
  | _ -> Alcotest.fail "count bound is 1-inductive"

let induction_cti_for_unreachable_claim () =
  (* "count <= 2" holds up to depth but is not inductive (from count=2 a
     push gives 3): expect a CTI, not a proof *)
  let p = Prop.make ~name:"le2" (E.ule (E.reg "count") (E.const ~width:cw 2)) in
  match Session.induction (Session.create fifo p) 1 with
  | Session.Cti _ -> ()
  | _ -> Alcotest.fail "expected counterexample-to-induction"

(* --- the transition query (induction at k = 0) --- *)

let transition_query_cti_then_inductive () =
  (* a free state may hold count = 5, so "count <= 4" fails over one
     transition from it; one step of induction excludes that state *)
  let s = Session.create fifo p_count_bound in
  (match Session.induction s 0 with
  | Session.Cti _ -> ()
  | _ -> Alcotest.fail "count bound is no transition invariant");
  match Session.induction s 1 with
  | Session.Inductive -> ()
  | _ -> Alcotest.fail "count bound is 1-inductive"

let induction_rejects_negative_k () =
  check_bool "k = -1 raises" true
    (try ignore (Session.induction (Session.create fifo p_count_bound) (-1)); false
     with Invalid_argument _ -> true)

(* --- Explicit --- *)

let explicit_proves () =
  match Explicit.check fifo p_count_bound with
  | Explicit.Proved { states } -> Alcotest.(check int) "states" 5 states
  | _ -> Alcotest.fail "expected proof"

let explicit_falsifies_with_shortest_path () =
  match Explicit.check fifo p_false with
  | Explicit.Falsified tr -> Alcotest.(check int) "bfs shortest" 3 (Trace.length tr)
  | _ -> Alcotest.fail "expected falsification"

let explicit_too_large () =
  let wide =
    Netlist.make ~name:"wide" ~inputs:[ ("x", 20) ] ~registers:[]
      ~outputs:[ ("y", Expr.input "x") ]
  in
  match Explicit.check wide (Prop.make ~name:"t" (E.const ~width:1 1)) with
  | Explicit.Too_large -> ()
  | _ -> Alcotest.fail "expected too-large"

let explicit_reachable_states () =
  Alcotest.(check (option int)) "fifo states" (Some 5)
    (Explicit.reachable_states fifo)

(* A 20-bit counter that wraps at 499,999, beside a 12-bit input
   register.  [c <> 2^20 - 1] holds, but no k <= 12 makes it inductive
   (a free state just below 2^20 - 1 counts up into it), so the engine
   falls back to explicit reachability: 4,096 input valuations per
   state, seconds of work if nothing stops it. *)
let wrapping_counter =
  let c = E.reg "c" and w20 = E.const ~width:20 in
  Netlist.make ~name:"wrap" ~inputs:[ ("x", 12) ] ~outputs:[]
    ~registers:
      [
        {
          Netlist.name = "c";
          width = 20;
          init = Bitvec.zero ~width:20;
          next = E.mux (E.eq c (w20 499_999)) (w20 0) (E.add c (w20 1));
        };
        {
          Netlist.name = "r";
          width = 12;
          init = Bitvec.zero ~width:12;
          next = E.input "x";
        };
      ]

let p_never_all_ones =
  Prop.make ~name:"c_not_all_ones"
    (E.not_ (E.eq (E.reg "c") (E.const ~width:20 ((1 lsl 20) - 1))))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let explicit_fallback_honours_governor () =
  let gov = Symbad_gov.Gov.create (Symbad_gov.Budget.make ~patterns:10 ()) in
  let r = Engine.check ~max_depth:12 ~gov wrapping_counter p_never_all_ones in
  (match r.Engine.verdict with
  | Engine.Unknown { reason } ->
      check_bool ("names the pattern budget: " ^ reason) true
        (contains reason "pattern budget")
  | v -> Alcotest.failf "expected unknown, got %a" Engine.pp_verdict v);
  Alcotest.(check int) "checked depth" 12 r.Engine.checked_depth;
  check_bool "at most 10 states expanded" true
    (Symbad_gov.Gov.spent_patterns gov <= 10)

let explicit_interrupted_by_spent_governor () =
  let gov = Symbad_gov.Gov.create (Symbad_gov.Budget.make ~patterns:0 ()) in
  check_bool "interrupted before the first state" true
    (Explicit.check ~gov fifo p_count_bound = Explicit.Interrupted);
  Alcotest.(check int) "nothing expanded" 0 (Symbad_gov.Gov.spent_patterns gov)

(* --- Engine --- *)

(* qcheck: the engine and explicit reachability agree on random small
   netlists.  At most 12 bits of state and input keep explicit to a few
   thousand transition evaluations per case, so it always decides.
   Properties are random invariants, random step formulas and
   next-state updates [r' = next(r)], which hold over every transition
   and so exercise the transition query.  Both engines return a
   shortest counterexample; a step trace from the engine keeps the
   successor state as well. *)
let qcheck_engine_agreement =
  let rec small st =
    let nl, width, _ = Netlist_gen.gen ~cycles:0 st in
    if width * (List.length (Netlist.registers nl) + 2) <= 12 then nl
    else small st
  in
  QCheck.Test.make ~name:"engine agrees with explicit" ~count:300
    (QCheck.make
       QCheck.Gen.(
         let* nl = small in
         let* r = oneofl (Netlist.registers nl) in
         let* prop =
           oneof
             [
               map (Prop.make ~name:"inv") (Netlist_gen.formula ~step:false nl);
               map (Prop.make_step ~name:"step")
                 (Netlist_gen.formula ~step:true nl);
               return
                 (Prop.make_step ~name:"next"
                    (E.eq (E.reg (r.Netlist.name ^ "'")) r.Netlist.next));
             ]
         in
         return (nl, prop)))
    (fun (nl, p) ->
      match ((Engine.check nl p).Engine.verdict, Explicit.check nl p) with
      | Engine.Proved _, Explicit.Proved _ -> true
      | Engine.Falsified a, Explicit.Falsified b ->
          Trace.length a
          = Trace.length b + if Prop.is_step p then 1 else 0
      | _ -> false)

let engine_step_property () =
  let push_ok = E.and_ (E.input "push") (E.not_ (Prop.output fifo "full")) in
  let pop_ok = E.and_ (E.input "pop") (E.not_ (Prop.output fifo "empty")) in
  let delta = E.sub (Prop.next (E.reg "count")) (E.reg "count") in
  let p =
    Prop.make_step ~name:"push_increments"
      (Prop.implies (E.and_ push_ok (E.not_ pop_ok))
         (E.eq delta (E.const ~width:cw 1)))
  in
  (* the update holds over every transition, reachable or not: the
     transition query proves it before any base case runs *)
  (match Session.induction (Session.create fifo p) 0 with
  | Session.Inductive -> ()
  | _ -> Alcotest.fail "push_increments holds over every transition");
  (match Engine.check fifo p with
  | { Engine.verdict = Engine.Proved { method_ = "transition"; depth = 0 };
      checked_depth = 0; _ } -> ()
  | r -> Alcotest.failf "expected a transition proof, got %a" Engine.pp_report r);
  (* and a false step property is falsified *)
  let bad =
    Prop.make_step ~name:"never_changes"
      (E.eq (Prop.next (E.reg "count")) (E.reg "count"))
  in
  match (Engine.check fifo bad).Engine.verdict with
  | Engine.Falsified _ -> ()
  | _ -> Alcotest.fail "expected falsification"

let engine_on_buggy_fifo () =
  let buggy = Rtl_lib.fifo_ctrl_buggy ~addr_width:2 () in
  let p =
    Prop.make ~name:"count_le_depth"
      (E.ule (E.reg "count") (E.const ~width:cw depth))
  in
  match (Engine.check buggy p).Engine.verdict with
  | Engine.Falsified tr ->
      (* the overflow needs depth+1 pushes *)
      Alcotest.(check bool) "trace long enough" true (Trace.length tr >= depth + 1)
  | _ -> Alcotest.fail "seeded bug must be found"

let engine_root_correctness () =
  let nl = Rtl_lib.root_datapath ~width:8 () in
  let p = Prop.make ~name:"root_correct" (Rtl_lib.root_correctness ~width:8 ()) in
  match (Engine.check nl p).Engine.verdict with
  | Engine.Proved _ -> ()
  | _ -> Alcotest.fail "ROOT datapath correctness should be proved"

(* --- Session (the incremental engine core) --- *)

let drive_fresh p k =
  (* a throwaway session driven 0..k from scratch; the answer at k *)
  let s = Session.create fifo p in
  let r = ref Session.Base_holds in
  for i = 0 to k do
    r := Session.check_bound s i
  done;
  !r

let same_base a b =
  match (a, b) with
  | Session.Base_holds, Session.Base_holds -> true
  | Session.Base_cex ta, Session.Base_cex tb ->
      Trace.length ta = Trace.length tb
  | Session.Base_unknown, Session.Base_unknown -> true
  | _ -> false

let session_matches_fresh_per_bound () =
  (* one persistent session driven 0..max gives, at every bound, the
     same answer as a fresh solver re-driven from scratch — learned
     clauses and closed bounds never change verdicts *)
  List.iter
    (fun p ->
      let inc = Session.create fifo p in
      for k = 0 to 8 do
        let i = Session.check_bound inc k in
        let f = drive_fresh p k in
        check_bool
          (Printf.sprintf "%s @ bound %d" (Prop.name p) k)
          true (same_base i f)
      done)
    [ p_no_full_empty; p_count_bound; p_false ]

let session_no_nvars_drift () =
  let s = Session.create fifo p_count_bound in
  for k = 0 to 3 do
    match Session.check_bound s k with
    | Session.Base_holds -> ()
    | _ -> Alcotest.fail "expected hold"
  done;
  let n = Session.base_nvars s in
  (* re-posing closed bounds must neither solve afresh nor allocate *)
  for k = 0 to 3 do
    match Session.check_bound s k with
    | Session.Base_holds -> ()
    | _ -> Alcotest.fail "closed bound must stay held"
  done;
  Alcotest.(check int) "base nvars drift" n (Session.base_nvars s);
  (match Session.induction s 1 with
  | Session.Inductive -> ()
  | _ -> Alcotest.fail "count bound is 1-inductive");
  let m = Session.step_nvars s in
  (* the free instance serves every k without re-blasting *)
  (match Session.induction s 1 with
  | Session.Inductive -> ()
  | _ -> Alcotest.fail "still 1-inductive");
  Alcotest.(check int) "step nvars drift" m (Session.step_nvars s)

let session_cex_is_concrete () =
  let s = Session.create fifo p_false in
  let rec go k =
    if k > 6 then Alcotest.fail "expected counterexample"
    else
      match Session.check_bound s k with
      | Session.Base_cex tr -> Alcotest.(check int) "trace" 3 (Trace.length tr)
      | _ -> go (k + 1)
  in
  go 0

(* qcheck: the incremental session and a fresh per-bound solver agree on
   random mutants of the counter threshold property, at every bound. *)
let qcheck_session_incremental_agrees =
  QCheck.Test.make ~name:"incremental session agrees with fresh solver"
    ~count:20
    QCheck.(int_bound 6)
    (fun threshold ->
      let p =
        Prop.make ~name:"thr"
          (E.ule (E.reg "count") (E.const ~width:cw threshold))
      in
      let inc = Session.create fifo p in
      List.for_all
        (fun k -> same_base (Session.check_bound inc k) (drive_fresh p k))
        (List.init 9 Fun.id))

(* --- Session.bmc and the governor --- *)

let zero () =
  Symbad_gov.Gov.create (Symbad_gov.Budget.make ~conflicts:0 ())

(* qcheck: [bmc] is exactly the ascending check_bound walk that stops at
   the first bound that does not hold. *)
let qcheck_bmc_is_ascending_walk =
  QCheck.Test.make ~name:"session bmc = ascending check_bound walk" ~count:30
    QCheck.(pair (int_bound 6) (int_bound 8))
    (fun (threshold, depth) ->
      let p =
        Prop.make ~name:"thr"
          (E.ule (E.reg "count") (E.const ~width:cw threshold))
      in
      let walk =
        let s = Session.create fifo p in
        let rec go k =
          if k > depth then Session.Base_holds
          else
            match Session.check_bound s k with
            | Session.Base_holds -> go (k + 1)
            | r -> r
        in
        go 0
      in
      same_base (bmc ~depth p) walk)

let session_bmc_rewalk_allocates_nothing () =
  let s = Session.create fifo p_count_bound in
  (match Session.bmc s ~depth:5 with
  | Session.Base_holds -> ()
  | _ -> Alcotest.fail "expected hold");
  let n = Session.base_nvars s in
  (* every bound of the re-walk is closed: no solve, no new variables *)
  (match Session.bmc s ~depth:5 with
  | Session.Base_holds -> ()
  | _ -> Alcotest.fail "closed bounds must stay held");
  Alcotest.(check int) "base nvars drift" n (Session.base_nvars s);
  (match Session.bmc s ~depth:7 with
  | Session.Base_holds -> ()
  | _ -> Alcotest.fail "expected hold at the deeper bound");
  check_bool "deeper walk unrolls more" true (Session.base_nvars s > n)

let session_recovers_after_unknown_bound () =
  (* an exhausted bound retires its query and leaves the session sound:
     the same bound posed without the governor answers as a fresh run *)
  List.iter
    (fun p ->
      let s = Session.create fifo p in
      let rec go k =
        if k <= 6 then
          match Session.check_bound ~gov:(zero ()) s k with
          | Session.Base_unknown ->
              let r = Session.check_bound s k in
              check_bool
                (Printf.sprintf "%s @ bound %d" (Prop.name p) k)
                true
                (same_base r (drive_fresh p k));
              (match r with Session.Base_holds -> go (k + 1) | _ -> ())
          | _ -> Alcotest.failf "%s @ %d: expected unknown" (Prop.name p) k
      in
      go 0)
    [ p_no_full_empty; p_count_bound; p_false ]

let session_induction_under_exhausted_gov () =
  let s = Session.create fifo p_count_bound in
  (match Session.induction ~gov:(zero ()) s 1 with
  | Session.Step_unknown -> ()
  | _ -> Alcotest.fail "expected step unknown");
  match Session.induction s 1 with
  | Session.Inductive -> ()
  | _ -> Alcotest.fail "count bound is still 1-inductive"

let engine_retry_keeps_transition_cti () =
  (* One conflict split over a window leaves bound 1 a zero share: the
     run degrades with the property's own budget intact, so the
     governor retries.  The retry re-poses only bound 1 (bound 0 is
     closed); a CTI at k = 0 is never re-asked. *)
  let solves retries =
    Symbad_obs.Obs.reset ();
    Symbad_obs.Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Symbad_obs.Obs.set_enabled false;
        Symbad_obs.Obs.reset ())
      (fun () ->
        let gov =
          Symbad_gov.Gov.create
            (Symbad_gov.Budget.make ~conflicts:1 ~retries ())
        in
        let r = Engine.check ~gov fifo p_count_bound in
        let m = Symbad_obs.Obs.metrics () in
        let count name =
          Option.value ~default:0 (Symbad_obs.Metrics.find_counter m name)
        in
        (r, count "sat.solves", count "gov.retries"))
  in
  let unknown = function
    | { Engine.verdict = Engine.Unknown _; _ } -> true
    | _ -> false
  in
  let r0, s0, n0 = solves 0 in
  let r1, s1, n1 = solves 1 in
  check_bool "degraded without a retry" true (unknown r0);
  check_bool "degraded after the retry" true (unknown r1);
  Alcotest.(check (pair int int)) "retries" (0, 1) (n0, n1);
  (* the transition query, bound 0 and bound 1; then bound 1 again *)
  Alcotest.(check (pair int int)) "sat.solves" (3, 4) (s0, s1)

let engine_ample_gov_matches_unlimited () =
  (* a governor that never binds leaves every verdict as the unlimited
     run gives it *)
  List.iter
    (fun p ->
      let gov =
        Symbad_gov.Gov.create (Symbad_gov.Budget.make ~conflicts:1_000_000 ())
      in
      match
        ((Engine.check fifo p).Engine.verdict,
         (Engine.check ~gov fifo p).Engine.verdict)
      with
      | Engine.Proved { method_ = m1; depth = d1 },
        Engine.Proved { method_ = m2; depth = d2 } ->
          check_bool (Prop.name p ^ ": same proof") true (m1 = m2 && d1 = d2)
      | Engine.Falsified a, Engine.Falsified b ->
          Alcotest.(check int) (Prop.name p ^ ": same trace length")
            (Trace.length a) (Trace.length b)
      | _ -> Alcotest.failf "verdicts differ on %s" (Prop.name p))
    [ p_no_full_empty; p_count_bound; p_false ]

(* qcheck: explicit-state and BMC agree on random small mutants of the
   counter threshold property. *)
let qcheck_bmc_explicit_agree =
  QCheck.Test.make ~name:"bmc agrees with explicit reachability" ~count:30
    QCheck.(int_bound 6)
    (fun threshold ->
      let p =
        Prop.make ~name:"thr"
          (E.ule (E.reg "count") (E.const ~width:cw threshold))
      in
      let bmc_says =
        match bmc ~depth:8 p with
        | Session.Base_cex _ -> false
        | Session.Base_holds | Session.Base_unknown -> true
      in
      let explicit_says =
        match Explicit.check fifo p with
        | Explicit.Falsified _ -> false
        | Explicit.Proved _ | Explicit.Too_large | Explicit.Interrupted -> true
      in
      (* depth 8 >= diameter of the 5-state fifo, so both are decisive *)
      bmc_says = explicit_says)

let suite =
  [
    Alcotest.test_case "prop validation" `Quick prop_validation;
    Alcotest.test_case "prop next rewriting" `Quick prop_next_rewrites;
    Alcotest.test_case "bmc finds shallow bug" `Quick bmc_finds_shallow_bug;
    Alcotest.test_case "bmc holds within depth" `Quick bmc_holds_within_depth;
    Alcotest.test_case "bmc counterexample is concrete" `Quick
      bmc_counterexample_is_concrete;
    Alcotest.test_case "k-induction proves" `Quick induction_proves;
    Alcotest.test_case "k-induction CTI" `Quick
      induction_cti_for_unreachable_claim;
    Alcotest.test_case "transition query: CTI at 0, inductive at 1" `Quick
      transition_query_cti_then_inductive;
    Alcotest.test_case "induction rejects negative k" `Quick
      induction_rejects_negative_k;
    Alcotest.test_case "explicit proves" `Quick explicit_proves;
    Alcotest.test_case "explicit shortest counterexample" `Quick
      explicit_falsifies_with_shortest_path;
    Alcotest.test_case "explicit too large" `Quick explicit_too_large;
    Alcotest.test_case "explicit reachable states" `Quick
      explicit_reachable_states;
    Alcotest.test_case "explicit fallback honours the governor" `Quick
      explicit_fallback_honours_governor;
    Alcotest.test_case "explicit interrupted by a spent governor" `Quick
      explicit_interrupted_by_spent_governor;
    QCheck_alcotest.to_alcotest qcheck_engine_agreement;
    Alcotest.test_case "engine step properties" `Quick engine_step_property;
    Alcotest.test_case "engine finds seeded fifo bug" `Quick
      engine_on_buggy_fifo;
    Alcotest.test_case "engine proves ROOT correctness" `Quick
      engine_root_correctness;
    Alcotest.test_case "session matches fresh per bound" `Quick
      session_matches_fresh_per_bound;
    Alcotest.test_case "session nvars drift" `Quick session_no_nvars_drift;
    Alcotest.test_case "session counterexample concrete" `Quick
      session_cex_is_concrete;
    QCheck_alcotest.to_alcotest qcheck_session_incremental_agrees;
    QCheck_alcotest.to_alcotest qcheck_bmc_explicit_agree;
    QCheck_alcotest.to_alcotest qcheck_bmc_is_ascending_walk;
    Alcotest.test_case "session bmc re-walk allocates nothing" `Quick
      session_bmc_rewalk_allocates_nothing;
    Alcotest.test_case "session recovers after unknown bound" `Quick
      session_recovers_after_unknown_bound;
    Alcotest.test_case "session induction under exhausted governor" `Quick
      session_induction_under_exhausted_gov;
    Alcotest.test_case "engine under ample governor matches unlimited" `Quick
      engine_ample_gov_matches_unlimited;
    Alcotest.test_case "engine retry keeps a transition CTI" `Quick
      engine_retry_keeps_transition_cti;
  ]
