(* The level-4 model-checking engine.

   Strategy mirroring the paper's "model checking and SAT solving are
   used at this level": first the transition query — does the property
   fail over one transition from a free state? — whose Unsat proves it
   on every state, so at every bound, without a single reset-anchored
   base case.  Most RTL properties of the flow are local to one
   transition and close here, and through DISTANCE's multiplier the
   free query costs a few dozen conflicts where a base case costs about
   a thousand.  The rest interleave BMC (counterexample hunting) with
   k-induction (proof attempts) for increasing k, and fall back to
   explicit reachability when the design is small enough and induction
   fails.  Every property receives either a proof certificate or a
   counterexample, as the flow requires.

   Incremental core: one Session per property — a persistent solver
   pair with frames unrolled on demand — so bound k+1 starts from the
   clauses learned closing bounds 0..k and the inductive step shares the
   same free-state instance across k, from the transition query (k = 0)
   on.  Bounds advance in fixed-width windows purely for budget
   accounting: the governor's remaining allowance is split per window
   BEFORE the bounds run, with a share per bound, so conflict charges
   land per bound exactly as they did when each bound owned a throwaway
   solver — and the split is independent of the pool width, keeping
   verdicts byte-identical at any [--jobs].

   Parallelism lives one level up: [check_all] fans out one job per
   property, each job driving its own session sequentially. *)

module Par = Symbad_par.Par
module Gov = Symbad_gov.Gov
module Degrade = Symbad_gov.Degrade
module Obs = Symbad_obs.Obs

(* Cache keys embed this (see Symbad_cache): bump on any change to the
   decision procedure, encodings or verdict semantics so stale verdicts
   can never be replayed against a different engine. *)
let version = "5"

type verdict =
  | Proved of { method_ : string; depth : int }
  | Falsified of Trace.t
  | Unknown of { reason : string }

type report = {
  property : string;
  verdict : verdict;
  checked_depth : int;
}

(* Budget-accounting window: bounds per governor split.  Fixed (not tied
   to the pool width) so the shares — and with them finite-budget
   verdicts — do not depend on [--jobs]. *)
let window_width = 4

(* One bound of the portfolio: the BMC base case at depth k, plus the
   inductive step when the base holds (exactly what the sequential loop
   would go on to run at that k).  The step at k = 0 is the transition
   query, which [check] asks before the first bound. *)
let check_bound ~session ~gov k =
  let base = Session.check_bound ~gov session k in
  let induction =
    match base with
    | Session.Base_holds when k > 0 ->
        Some (Session.induction ~gov session k)
    | Session.Base_holds | Session.Base_cex _ | Session.Base_unknown -> None
  in
  (base, induction)

(* Why a bound came back unknown, as seen from the window's parent
   governor (child charges have propagated by the time we scan); a
   bound's own share can run dry while the parent still has budget. *)
let out_reason gov ~what =
  match Gov.exhaustion gov with
  | Some r -> Printf.sprintf "governor: %s" (Degrade.reason_string r)
  | None -> "SAT budget exhausted in " ^ what

let check ?(max_depth = 20) ?gov nl prop =
  let gov = Gov.get gov in
  let name = Prop.name prop in
  let session = Session.create nl prop in
  let fallback () =
    (* last resort: exact reachability if tractable and in budget *)
    match Explicit.check ~gov nl prop with
    | Explicit.Proved { states } ->
        { property = name;
          verdict = Proved { method_ = Printf.sprintf "reachability(%d states)" states; depth = max_depth };
          checked_depth = max_depth }
    | Explicit.Falsified tr ->
        { property = name; verdict = Falsified tr; checked_depth = max_depth }
    | Explicit.Too_large ->
        { property = name;
          verdict = Unknown { reason = Printf.sprintf "no proof within k=%d" max_depth };
          checked_depth = max_depth }
    | Explicit.Interrupted ->
        { property = name;
          verdict = Unknown { reason = out_reason gov ~what:"reachability" };
          checked_depth = max_depth }
  in
  (* governed degradation: the best bound fully checked is k - 1 *)
  let degraded ~reason k =
    { property = name;
      verdict = Unknown { reason };
      checked_depth = max 0 (k - 1) }
  in
  (* The transition query, charged to this property's own governor
     before any window split.  A CTI is a fact about the netlist, so a
     retry re-asks only a query the budget cut short. *)
  let transition_refuted = ref false in
  let transition_proved () =
    (not !transition_refuted)
    && (not (Gov.out_of_budget gov))
    &&
    match Session.induction ~gov session 0 with
    | Session.Inductive -> true
    | Session.Cti _ ->
        transition_refuted := true;
        false
    | Session.Step_unknown -> false
  in
  let run ~attempt:_ =
    let rec loop k =
      if k > max_depth then fallback ()
      else if Gov.out_of_budget gov then
        degraded ~reason:(out_reason gov ~what:"BMC") k
      else begin
        let hi = min max_depth (k + window_width - 1) in
        let window = List.init (hi - k + 1) (fun i -> k + i) in
        (* each bound gets its conflict share before the window runs —
           the same accounting as when bounds were fanned out, kept so
           finite-budget verdicts stay deterministic and width-free *)
        let shares = Gov.split ~label:"mc.window" gov (List.length window) in
        (* drive the shared session in ascending k; on the session the
           sequential decision IS the execution order *)
        let rec scan = function
          | [] -> loop (hi + 1)
          | (k, gk) :: rest -> (
              let base, induction = check_bound ~session ~gov:gk k in
              match base with
              | Session.Base_cex tr ->
                  { property = name; verdict = Falsified tr; checked_depth = k }
              | Session.Base_unknown ->
                  degraded ~reason:(out_reason gov ~what:"BMC") k
              | Session.Base_holds -> (
                  match induction with
                  | None -> scan rest  (* k = 0: the transition query *)
                  | Some Session.Inductive ->
                      { property = name;
                        verdict = Proved { method_ = "k-induction"; depth = k };
                        checked_depth = k }
                  | Some (Session.Cti _) -> scan rest
                  | Some Session.Step_unknown ->
                      (* the base case at k DID hold: k is fully checked *)
                      { property = name;
                        verdict =
                          Unknown { reason = out_reason gov ~what:"induction" };
                        checked_depth = k }))
        in
        scan (List.combine window shares)
      end
    in
    let report =
      if transition_proved () then begin
        if Obs.enabled () then Obs.incr_counter "mc.transition_proved";
        { property = name;
          verdict = Proved { method_ = "transition"; depth = 0 };
          checked_depth = 0 }
      end
      else loop 0
    in
    (match (report.verdict, Gov.exhaustion gov) with
    | Unknown _, Some reason ->
        Gov.note_degraded gov ~what:(Printf.sprintf "mc:%s" name) reason
    | _ -> ());
    report
  in
  (* retries reuse the session: closed bounds answer instantly, a
     refuted transition query is not re-asked, and the clauses learned
     before exhaustion keep their value *)
  Gov.with_retry ~label:"mc" gov
    ~inconclusive:(fun r ->
      match r.verdict with Unknown _ -> true | Proved _ | Falsified _ -> false)
    run

let check_all ?pool ?max_depth ?gov nl props =
  (* per-property fan-out; each job replays the sequential engine over
     its own pre-split budget share (and its own session), so the report
     list is identical at any pool width *)
  let pool = Par.get pool in
  let gov = Gov.get gov in
  match props with
  | [] -> []
  | props ->
      let shares = Gov.split ~label:"mc.properties" gov (List.length props) in
      Par.map ~label:"mc.properties" pool
        (fun (p, g) -> check ?max_depth ~gov:g nl p)
        (List.combine props shares)

let all_proved reports =
  List.for_all
    (fun r -> match r.verdict with Proved _ -> true | _ -> false)
    reports

let pp_verdict fmt = function
  | Proved { method_; depth } -> Fmt.pf fmt "proved (%s, k=%d)" method_ depth
  | Falsified tr -> Fmt.pf fmt "FALSIFIED (%d-cycle trace)" (Trace.length tr)
  | Unknown { reason } -> Fmt.pf fmt "unknown (%s)" reason

let pp_report fmt r =
  Fmt.pf fmt "%-28s %a" r.property pp_verdict r.verdict
