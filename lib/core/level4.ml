(* Level 4: RTL generation and formal verification.

   The FPGA-mapped datapaths (DISTANCE, ROOT) and the RTL-to-TL interface
   wrapper come from the predefined IP library; properties about them are
   model checked (proof certificate or counterexample for each), and the
   property-coverage checker then judges whether the property set is
   complete, exposing behaviours no property constrains. *)

module Hdl = Symbad_hdl
module Expr = Symbad_hdl.Expr
module Mc = Symbad_mc
module Prop = Symbad_mc.Prop

type rtl_module = {
  module_name : string;
  netlist : Hdl.Netlist.t;
  properties : Prop.t list;
}

let distance_properties () =
  let aw = 16 in
  let acc = Expr.reg "acc" in
  let start = Expr.input "start" and valid = Expr.input "valid" in
  let a =
    Expr.concat (Expr.const ~width:8 0) (Expr.input "a")
  and b = Expr.concat (Expr.const ~width:8 0) (Expr.input "b") in
  let diff = Expr.sub a b in
  let sq = Expr.mul diff diff in
  [
    Prop.make_step ~name:"start_clears_acc"
      (Prop.implies start (Expr.eq (Prop.next acc) (Expr.const ~width:aw 0)));
    Prop.make_step ~name:"idle_holds_acc"
      (Prop.implies
         (Expr.and_ (Expr.not_ start) (Expr.not_ valid))
         (Expr.eq (Prop.next acc) acc));
    Prop.make_step ~name:"mac_accumulates"
      (Prop.implies
         (Expr.and_ (Expr.not_ start) valid)
         (Expr.eq (Prop.next acc) (Expr.add acc sq)));
  ]

(* The ROOT verification plan.  The first three properties are the
   "initial plan"; the rest were added after PCC exposed undetected
   faults in the stepping logic — the refinement loop of Section 3.4. *)
let root_properties () =
  let bit = Expr.reg "bit" and busy = Expr.reg "busy" in
  let start = Expr.input "start" in
  let zero8 = Expr.const ~width:8 0 in
  let done_ = Expr.and_ busy (Expr.eq bit zero8) in
  let stepping = Expr.and_ busy (Expr.not_ (Expr.eq bit zero8)) in
  let shr2 e =
    Expr.concat (Expr.const ~width:2 0) (Expr.slice e ~hi:7 ~lo:2)
  in
  [
    Prop.make ~name:"root_correct" (Hdl.Rtl_lib.root_correctness ~width:8 ());
    Prop.make_step ~name:"result_stable_when_done"
      (Prop.implies
         (Expr.and_ done_ (Expr.not_ start))
         (Expr.eq (Prop.next (Expr.reg "res")) (Expr.reg "res")));
    Prop.make_step ~name:"start_loads_operand"
      (Prop.implies start
         (Expr.eq (Prop.next (Expr.reg "nsave")) (Expr.input "n")));
    (* added after the first PCC pass *)
    Prop.make_step ~name:"start_loads_num"
      (Prop.implies start
         (Expr.eq (Prop.next (Expr.reg "num")) (Expr.input "n")));
    Prop.make_step ~name:"start_inits_iteration"
      (Prop.implies start
         (Expr.and_
            (Expr.eq (Prop.next bit) (Expr.const ~width:8 64))
            (Expr.and_ (Prop.next busy)
               (Expr.eq (Prop.next (Expr.reg "res")) zero8))));
    Prop.make_step ~name:"bit_shrinks_by_four"
      (Prop.implies
         (Expr.and_ (Expr.not_ start) stepping)
         (Expr.eq (Prop.next bit) (shr2 bit)));
    Prop.make_step ~name:"done_clears_busy"
      (Prop.implies (Expr.and_ (Expr.not_ start) done_)
         (Expr.not_ (Prop.next busy)));
    Prop.make_step ~name:"idle_holds_state"
      (Prop.implies
         (Expr.and_ (Expr.not_ start) (Expr.not_ busy))
         (Expr.and_
            (Expr.eq (Prop.next (Expr.reg "num")) (Expr.reg "num"))
            (Expr.and_
               (Expr.eq (Prop.next (Expr.reg "res")) (Expr.reg "res"))
               (Expr.eq (Prop.next bit) bit))));
  ]

(* The interface-wrapper verification plan (the HW/SW interface
   correctness properties of Section 3.4); the occupancy-transition
   properties were added after the first PCC pass. *)
let wrapper_properties nl =
  let full = Expr.reg "full" and buf = Expr.reg "buf" in
  [
    Prop.make ~name:"no_ack_when_full"
      (Expr.not_ (Expr.and_ (Prop.output nl "ack") full));
    Prop.make ~name:"ack_implies_req"
      (Prop.implies (Prop.output nl "ack") (Expr.input "req"));
    Prop.make_step ~name:"held_data_stable"
      (Prop.implies
         (Expr.and_ full (Expr.not_ (Expr.input "take")))
         (Expr.eq (Prop.next buf) buf));
    Prop.make_step ~name:"accepted_data_stored"
      (Prop.implies (Prop.output nl "ack")
         (Expr.eq (Prop.next buf) (Expr.input "data")));
    (* added after the first PCC pass *)
    Prop.make_step ~name:"accept_sets_full"
      (Prop.implies (Prop.output nl "ack") (Prop.next full));
    Prop.make_step ~name:"take_drains"
      (Prop.implies
         (Expr.and_ full (Expr.input "take"))
         (Expr.not_ (Prop.next full)));
    Prop.make_step ~name:"empty_stays_empty_without_req"
      (Prop.implies
         (Expr.and_ (Expr.not_ full) (Expr.not_ (Expr.input "req")))
         (Expr.not_ (Prop.next full)));
  ]

(* The streaming-argmin (WINNER) verification plan. *)
let argmin_properties () =
  let start = Expr.input "start" and valid = Expr.input "valid" in
  let d = Expr.input "d" in
  let best = Expr.reg "best"
  and best_idx = Expr.reg "best_idx"
  and count = Expr.reg "count" in
  [
    Prop.make_step ~name:"start_resets"
      (Prop.implies start
         (Expr.and_
            (Expr.eq (Prop.next best) (Expr.const ~width:10 1023))
            (Expr.and_
               (Expr.eq (Prop.next best_idx) (Expr.const ~width:5 0))
               (Expr.eq (Prop.next count) (Expr.const ~width:5 0)))));
    Prop.make_step ~name:"best_monotone"
      (Prop.implies (Expr.not_ start) (Expr.ule (Prop.next best) best));
    Prop.make_step ~name:"better_candidate_wins"
      (Prop.implies
         (Expr.and_ (Expr.not_ start) (Expr.and_ valid (Expr.ult d best)))
         (Expr.and_
            (Expr.eq (Prop.next best) d)
            (Expr.eq (Prop.next best_idx) count)));
    Prop.make_step ~name:"worse_candidate_ignored"
      (Prop.implies
         (Expr.and_ (Expr.not_ start)
            (Expr.and_ valid (Expr.not_ (Expr.ult d best))))
         (Expr.and_
            (Expr.eq (Prop.next best) best)
            (Expr.eq (Prop.next best_idx) best_idx)));
    Prop.make_step ~name:"valid_counts"
      (Prop.implies
         (Expr.and_ (Expr.not_ start) valid)
         (Expr.eq (Prop.next count) (Expr.add count (Expr.const ~width:5 1))));
    Prop.make_step ~name:"idle_holds"
      (Prop.implies
         (Expr.and_ (Expr.not_ start) (Expr.not_ valid))
         (Expr.and_
            (Expr.eq (Prop.next best) best)
            (Expr.and_
               (Expr.eq (Prop.next best_idx) best_idx)
               (Expr.eq (Prop.next count) count))));
  ]

(* The case-study RTL modules with their verification plans.  The
   fourth entry exercises the automated-interface-synthesis option: a
   two-slot skid-buffer wrapper synthesised from its specification, with
   mechanically generated checkers. *)
let modules () =
  let wrapper = Hdl.Rtl_lib.handshake_wrapper () in
  let gen_spec =
    Wrapper_gen.make_spec ~interface_name:"IFGEN" ~data_width:8 ~depth:2 ()
  in
  let gen_wrapper = Wrapper_gen.synthesize gen_spec in
  [
    {
      module_name = "DISTANCE";
      netlist = Hdl.Rtl_lib.distance_datapath ();
      properties = distance_properties ();
    };
    {
      module_name = "ROOT";
      netlist = Hdl.Rtl_lib.root_datapath ~width:8 ();
      properties = root_properties ();
    };
    {
      module_name = "WRAPPER";
      netlist = wrapper;
      properties = wrapper_properties wrapper;
    };
    {
      module_name = "ARGMIN";
      netlist = Hdl.Rtl_lib.argmin_datapath ();
      properties = argmin_properties ();
    };
    {
      module_name = "IFGEN";
      netlist = gen_wrapper;
      properties = Wrapper_gen.checkers gen_spec gen_wrapper;
    };
  ]

(* The rich per-engine reports of a module that actually ran.  A cache
   hit replays the consolidated verdict rows only — the traces, fault
   lists and diagnostics behind them were not recomputed. *)
type module_results = {
  lint : Symbad_lint.Lint.report;
  gated : bool;
  mc_reports : Mc.Engine.report list;
  all_proved : bool;
  pcc : Symbad_pcc.Pcc.report option;
}

type module_report = {
  module_name : string;
  cached : bool;
  lint_verdict : Verdict.t;
  mc_verdict : Verdict.t;
  pcc_verdict : Verdict.t;
  results : module_results option;
}

type result = { modules : module_report list }

let module_verdicts r = [ r.lint_verdict; r.mc_verdict; r.pcc_verdict ]

(* The three consolidated verdict rows of a module run — one shape for
   the flow report, the [verify rtl] CLI and the cache (historically
   each consumer rebuilt these from the rich reports by hand). *)
let results_verdicts ~module_name (res : module_results) =
  let lint_verdict =
    (* the adapter names the netlist; the flow names the module *)
    { (Verdict.of_lint res.lint) with
      Verdict.name = Printf.sprintf "lint %s" module_name }
  in
  let skipped name =
    Verdict.make ~name ~detail:"static lint already disproved the module"
      (Verdict.Inconclusive "skipped: lint gate")
  in
  let mc_verdict =
    let name = Printf.sprintf "model checking %s" module_name in
    if res.gated then skipped name
    else
      Verdict.make ~name ~passed:res.all_proved
        ~detail:(Printf.sprintf "%d properties" (List.length res.mc_reports))
        (if res.all_proved then Verdict.Proved
         else Verdict.Inconclusive "not all properties proved")
  in
  let pcc_verdict =
    let name = Printf.sprintf "PCC completeness %s" module_name in
    match res.pcc with
    | Some pcc -> { (Verdict.of_pcc pcc) with Verdict.name = name }
    | None -> skipped name
  in
  (lint_verdict, mc_verdict, pcc_verdict)

(* --- the verdict cache ------------------------------------------------ *)

let cache_key ~escalate ~max_depth ~pcc_depth ~max_reg_bits gov m =
  Symbad_cache.Key.make ~netlist:m.netlist ~props:m.properties
    ~budget:(Symbad_gov.Gov.budget gov)
    ~params:
      [
        ("max_depth", max_depth);
        ("pcc_depth", pcc_depth);
        ("max_reg_bits", max_reg_bits);
        (* the lint gate's behaviour is part of the verdict: growing the
           rule family or toggling escalation must miss stale entries *)
        ("lint_rules", List.length Symbad_lint.Lint.netlist_rule_ids);
        ("escalate", if escalate then 1 else 0);
      ]
    ()

(* A hit needs all three rows to decode: an entry with a missing,
   ill-typed or contradictory row ({!Verdict.of_json}) is a miss. *)
let cached_report cache key (m : rtl_module) =
  let module Json = Symbad_obs.Json in
  Symbad_cache.Cache.find cache key @@ fun entry ->
  let row i =
    Option.bind (Json.member "verdicts" entry) Json.to_list
    |> Fun.flip Option.bind (fun l -> List.nth_opt l i)
    |> Fun.flip Option.bind Verdict.of_json
    |> Option.map Verdict.with_cached
  in
  match (row 0, row 1, row 2) with
  | Some lint_verdict, Some mc_verdict, Some pcc_verdict ->
      Some
        {
          module_name = m.module_name;
          cached = true;
          lint_verdict;
          mc_verdict;
          pcc_verdict;
          results = None;
        }
  | _ -> None

(* Only conclusive work is worth replaying: every property proved, no
   unresolved PCC faults, a clean ungated lint, and no exhaustion or
   wall-clock deadline in sight.  Anything else is a budget- or
   host-dependent partial result — re-running it may genuinely do
   better, so it must miss. *)
let storable gov (res : module_results) (lint_v, mc_v, pcc_v) =
  (not res.gated)
  && res.all_proved
  && lint_v.Verdict.passed && mc_v.Verdict.passed && pcc_v.Verdict.passed
  && (match res.pcc with
     | Some p ->
         List.for_all
           (fun (fr : Symbad_pcc.Pcc.fault_report) ->
             fr.Symbad_pcc.Pcc.status <> Symbad_pcc.Pcc.Unresolved)
           p.Symbad_pcc.Pcc.faults
     | None -> false)
  && res.lint.Symbad_lint.Lint.skipped_rules = []
  && Symbad_gov.Gov.exhaustion gov = None
  && (Symbad_gov.Gov.budget gov).Symbad_gov.Budget.deadline = None

let store_report cache key r =
  let module Json = Symbad_obs.Json in
  Symbad_cache.Cache.store cache key
    (Json.Obj
       [
         ("module", Json.Str r.module_name);
         ( "verdicts",
           Json.List
             (List.map (Verdict.to_json ~timings:false) (module_verdicts r)) );
       ])

(* --- driving one module ----------------------------------------------- *)

let verify_module_live ?pool ~gov ~escalate ~max_depth ~pcc_depth ~max_reg_bits
    m =
  (* the static gate comes first, over a thin slice: a netlist the lint
     disproves never reaches the SAT engines.  Only errors gate —
     warnings and governor-skipped rules let verification proceed. *)
  let lint_gov = Symbad_gov.Gov.slice ~label:"lint" ~fraction:0.1 gov in
  let prop_pairs =
    List.map (fun p -> (Prop.name p, Prop.formula p)) m.properties
  in
  let lint =
    Symbad_lint.Lint.run_netlist ?pool ~gov:lint_gov ~properties:prop_pairs
      m.netlist
  in
  (* escalation runs before the gate so a disproved warning (promoted
     to error, counterexample attached) keeps the SAT engines off *)
  let lint =
    if escalate && Symbad_lint.Lint.errors lint = 0 then
      Symbad_lint.Lint.escalate ?pool
        ~gov:(Symbad_gov.Gov.slice ~label:"lint.escalate" ~fraction:0.1 gov)
        ~max_depth m.netlist lint
    else lint
  in
  if Symbad_lint.Lint.errors lint > 0 then
    { lint; gated = true; mc_reports = []; all_proved = false; pcc = None }
  else
    (* half the module's budget to model checking up front; PCC then
       runs over whatever the proofs left unspent *)
    let mc_gov = Symbad_gov.Gov.slice ~label:"mc" ~fraction:0.5 gov in
    let mc_reports =
      Mc.Engine.check_all ?pool ~max_depth ~gov:mc_gov m.netlist m.properties
    in
    {
      lint;
      gated = false;
      mc_reports;
      all_proved = Mc.Engine.all_proved mc_reports;
      pcc =
        Some
          (Symbad_pcc.Pcc.run ?pool ~depth:pcc_depth ~max_reg_bits ~gov
             m.netlist m.properties);
    }

let verify_module ?pool ?cache ?gov ?(escalate = false) m =
  (* BMC to depth 12, PCC miters to depth 6, four stuck-at bits per
     register *)
  let max_depth = 12 and pcc_depth = 6 and max_reg_bits = 4 in
  let gov = Symbad_gov.Gov.get gov in
  let key =
    match cache with
    | None -> None
    | Some _ ->
        Some (cache_key ~escalate ~max_depth ~pcc_depth ~max_reg_bits gov m)
  in
  let hit =
    match (cache, key) with
    | Some c, Some k -> cached_report c k m
    | _ -> None
  in
  match hit with
  | Some r -> r
  | None ->
      let res =
        verify_module_live ?pool ~gov ~escalate ~max_depth ~pcc_depth
          ~max_reg_bits m
      in
      let lint_verdict, mc_verdict, pcc_verdict =
        results_verdicts ~module_name:m.module_name res
      in
      let r =
        {
          module_name = m.module_name;
          cached = false;
          lint_verdict;
          mc_verdict;
          pcc_verdict;
          results = Some res;
        }
      in
      (match (cache, key) with
      | Some c, Some k
        when storable gov res (lint_verdict, mc_verdict, pcc_verdict) ->
          store_report c k r
      | _ -> ());
      r

let run ?pool ?cache ?gov ?escalate () =
  let gov = Symbad_gov.Gov.get gov in
  let ms = modules () in
  (* per-module budget shares, fixed before any verification runs *)
  let shares = Symbad_gov.Gov.split ~label:"level4.modules" gov (List.length ms) in
  {
    modules =
      List.map2
        (fun m g ->
          verify_module ?pool ?cache ~gov:g ?escalate m)
        ms shares;
  }

let pp_module_report fmt r =
  Fmt.pf fmt "RTL module %s:@." r.module_name;
  match r.results with
  | None ->
      List.iter
        (fun v -> Fmt.pf fmt "  %a@." Verdict.pp v)
        (module_verdicts r)
  | Some res ->
      Fmt.pf fmt "  lint: %d errors, %d warnings over %d rules@."
        (Symbad_lint.Lint.errors res.lint)
        (Symbad_lint.Lint.warnings res.lint)
        (List.length res.lint.Symbad_lint.Lint.rules_run);
      List.iter
        (fun d -> Fmt.pf fmt "    %a@." Symbad_lint.Diagnostic.pp d)
        res.lint.Symbad_lint.Lint.diagnostics;
      if res.gated then
        Fmt.pf fmt "  model checking and PCC skipped: lint gate@."
      else begin
        List.iter
          (fun m -> Fmt.pf fmt "  %a@." Mc.Engine.pp_report m)
          res.mc_reports;
        match res.pcc with
        | Some pcc ->
            Fmt.pf fmt
              "  property coverage: %.0f%% (%d/%d detectable faults)@."
              (100. *. pcc.Symbad_pcc.Pcc.coverage)
              pcc.Symbad_pcc.Pcc.covered pcc.Symbad_pcc.Pcc.detectable
        | None -> ()
      end

let pp fmt r = List.iter (pp_module_report fmt) r.modules
