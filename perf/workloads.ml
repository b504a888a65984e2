(* The four benchmark workloads.  Each is a closed loop with one client
   over a fixed, seed-drawn pass of operations; the harness (main.ml)
   times the ops, repeats passes and runs the traced passes.

   Every op has two forms over the same inputs: [op], the public entry
   point a user calls (timed, tracing off), and [traced], the same work
   split into calls of the layers' public entry points, each inside a
   benchmark span.  Both return a digest of their MC/PCC (or campaign)
   outcome; the traced pass must reproduce the untraced digests. *)

open Symbad_perf
module Core = Symbad_core
module Flow = Core.Flow
module Level4 = Core.Level4
module Verdict = Core.Verdict
module Face_app = Core.Face_app
module Cache = Symbad_cache.Cache
module Lint = Symbad_lint.Lint
module Pcc = Symbad_pcc.Pcc
module Campaign = Symbad_resil.Campaign
module Json = Symbad_obs.Json

exception Wrong of string
(** An op returned an incorrect result. *)

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

type t = {
  pass : string list;  (** the op labels of one pass, in order *)
  new_pass : unit -> unit;  (** reset per-pass state (a fresh cache) *)
  op : int -> unit -> string;
      (** run op [i] of the pass (timed); the returned closure checks
          the result (untimed) and gives its digest *)
  traced : Spans.t -> op:int -> count:(string -> int -> unit) -> int -> string;
      (** the layer-split form of op [i], reporting the counts tracing
          cannot see through [count]; gives the digest *)
  cache_counts : unit -> int * int * int;
      (** hits, misses and stores of the current cache so far *)
  close : unit -> unit;
}

type workload = { name : string; setup : dir:string -> seed:int -> t }

(* --- shared pieces ------------------------------------------------------ *)

let counts_of c = (Cache.hits c, Cache.misses c, Cache.stores c)

(* A cache in a directory no earlier pass has touched. *)
let fresh_cache =
  let n = ref 0 in
  fun dir ->
    incr n;
    Cache.create ~dir:(Filename.concat dir (Printf.sprintf "cache%d" !n)) ()

let script rng ~frames ~identities =
  List.init frames (fun _ ->
      (Random.State.int rng identities, 1 + Random.State.int rng 4))

let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* The paper's level-4 figures (E8): properties each module proves and
   PCC's covered/detectable faults. *)
let expected_level4 =
  [
    ("DISTANCE", 3, 12, 12);
    ("ROOT", 8, 41, 42);
    ("WRAPPER", 7, 15, 16);
    ("ARGMIN", 6, 34, 34);
    ("IFGEN", 10, 26, 26);
  ]

let row name ~proved ~props ~covered ~detectable =
  Printf.sprintf "%s mc=%d/%d pcc=%d/%d" name proved props covered detectable

let expected_digest =
  String.concat "; "
    (List.map
       (fun (m, props, covered, detectable) ->
         row m ~proved:props ~props ~covered ~detectable)
       expected_level4)

let props_of name =
  match List.find_opt (fun (m, _, _, _) -> m = name) expected_level4 with
  | Some (_, props, _, _) -> props
  | None -> wrong "unexpected module %s" name

(* The digest of a module from its consolidated rows (a flow report or
   a cache replay): the MC row passes only when every property proved. *)
let row_of_verdicts name ~(mc : Verdict.t) ~(pcc : Verdict.t) =
  let props = props_of name in
  match pcc.Verdict.outcome with
  | Verdict.Coverage { hit; total } ->
      row name ~proved:(if mc.Verdict.passed then props else 0) ~props
        ~covered:hit ~detectable:total
  | _ -> wrong "%s: PCC row is not a coverage result" pcc.Verdict.name

let row_of_live name (mc : Symbad_mc.Engine.report list) (pcc : Pcc.report) =
  let proved =
    List.length
      (List.filter
         (fun (r : Symbad_mc.Engine.report) ->
           match r.Symbad_mc.Engine.verdict with
           | Symbad_mc.Engine.Proved _ -> true
           | _ -> false)
         mc)
  in
  row name ~proved ~props:(List.length mc) ~covered:pcc.Pcc.covered
    ~detectable:pcc.Pcc.detectable

let find_verdict (r : Flow.t) name =
  match
    List.concat_map (fun l -> l.Flow.verifications) r.Flow.levels
    |> List.find_opt (fun v -> v.Verdict.name = name)
  with
  | Some v -> v
  | None -> wrong "flow report has no %S row" name

(* The flow's level-4 digest, plus the checks every flow op must pass:
   an all-passed report whose level-1 trace matched every stream of the
   C reference model, with level-4 rows all replayed or all computed. *)
let check_flow (r : Flow.t) ~reference ~cached =
  if not r.Flow.all_passed then wrong "flow did not pass";
  let streams = List.length (Symbad_sim.Trace.sources reference) in
  let v = find_verdict r "trace match vs C reference model" in
  if v.Verdict.detail <> Printf.sprintf "%d streams match" streams then
    wrong "level-1 trace: %s, reference has %d streams" v.Verdict.detail streams;
  String.concat "; "
    (List.map
       (fun (m, props, _, _) ->
         let mc = find_verdict r ("model checking " ^ m)
         and pcc = find_verdict r ("PCC completeness " ^ m) in
         if mc.Verdict.detail <> Printf.sprintf "%d properties" props then
           wrong "%s: %s" mc.Verdict.name mc.Verdict.detail;
         if mc.Verdict.cached <> cached || pcc.Verdict.cached <> cached then
           wrong "%s: cached is not %b" m cached;
         row_of_verdicts m ~mc ~pcc)
       expected_level4)

(* One module verified on a scratch cache: the engines' code and heap
   warmed before the timed ops, which still start from an empty cache. *)
let warm_up dir (m : Level4.rtl_module) =
  if not (Level4.verify_module ~cache:(fresh_cache dir) m).Level4.mc_verdict.Verdict.passed then
    wrong "warm-up: %s did not prove" m.module_name

let root () =
  match List.find_opt (fun (m : Level4.rtl_module) -> m.module_name = "ROOT") (Level4.modules ()) with
  | Some m -> m
  | None -> wrong "no ROOT module"

let check_cache c ~before:(h0, m0, s0) ~hits ~misses ~stores =
  let h, m, s = counts_of c in
  if (h - h0, m - m0, s - s0) <> (hits, misses, stores) then
    wrong "cache: %d hits %d misses %d stores, expected %d/%d/%d" (h - h0)
      (m - m0) (s - s0) hits misses stores

(* --- traced forms --------------------------------------------------------- *)

let require what ok = if not ok then wrong "traced pass: %s failed" what

(* One live level-4 module: the three engines [Level4.verify_module]
   runs on a cache miss, at its default bounds. *)
let traced_module sp ~op ~count (m : Level4.rtl_module) =
  let span name f = Spans.span sp ~op name f in
  let properties =
    List.map (fun p -> (Symbad_mc.Prop.name p, Symbad_mc.Prop.formula p)) m.properties
  in
  let lint = span "lint" (fun () -> Lint.run_netlist ~properties m.netlist) in
  require ("lint " ^ m.module_name) (Lint.errors lint = 0);
  let mc =
    span "mc" (fun () ->
        Symbad_mc.Engine.check_all ~max_depth:12 m.netlist m.properties)
  in
  let pcc =
    span "pcc" (fun () -> Pcc.run ~depth:6 ~max_reg_bits:4 m.netlist m.properties)
  in
  count "pcc.faults" (List.length pcc.Pcc.faults);
  count "pcc.detectable" pcc.Pcc.detectable;
  count "pcc.covered" pcc.Pcc.covered;
  count "pcc.unresolved"
    (List.length
       (List.filter (fun f -> f.Pcc.status = Pcc.Unresolved) pcc.Pcc.faults));
  row_of_live m.module_name mc pcc

(* [Flow.run]'s steps in its order, each public call in its layer's
   span.  A warm [cache] replays level 4 through [Level4.verify_module]
   (which must hit); without one level 4 runs live. *)
let traced_flow sp ~op ~count ?cache (w : Face_app.workload) =
  let span name f = Spans.span sp ~op name f in
  let same what ~reference ~actual =
    span "sim.compare" (fun () ->
        require what (Symbad_sim.Trace.compare_data ~reference ~actual = []))
  in
  let graph, reference, modules =
    span "core.inputs" (fun () ->
        (Face_app.graph w, Face_app.reference_trace w, Level4.modules ()))
  in
  let l1 = span "core.level1" (fun () -> Core.Level1.run graph) in
  same "level-1 trace" ~reference ~actual:l1.Core.Level1.trace;
  require "ATPG" (span "atpg" (fun () -> Core.Engines.atpg ~seed:1 ())).Verdict.passed;
  require "LPV deadlock"
    (Verdict.of_lpv_deadlock (span "lpv" (fun () -> Core.Lpv_bridge.check_deadlock graph)))
      .Verdict.passed;
  let profile = l1.Core.Level1.profile in
  let mapping2, l2 =
    span "core.level2" (fun () ->
        let m = Face_app.level2_mapping ~profile graph in
        (m, Core.Level2.run graph m))
  in
  same "level-2 trace" ~reference:l1.Core.Level1.trace ~actual:l2.Core.Level2.trace;
  span "lpv" (fun () ->
      let deadline_ns = 40_000_000 and timing = Core.Lpv_bridge.default_timing in
      let _, met =
        Core.Lpv_bridge.check_deadline ~deadline_ns ~timing ~mapping:mapping2 ~profile
          graph
      in
      require "LPV deadline" met;
      require "LPV FIFO dimensioning"
        (Core.Lpv_bridge.dimension_fifos ~deadline_ns ~timing ~mapping:mapping2
           ~profile graph
        <> None));
  let l3 =
    span "core.level3" (fun () ->
        Core.Level3.run graph
          (Core.Mapping.refine_to_fpga mapping2 Face_app.level3_refinement))
  in
  same "level-3 trace" ~reference:l2.Core.Level2.trace ~actual:l3.Core.Level3.trace;
  let info = l3.Core.Level3.config_info and sw = l3.Core.Level3.instrumented_sw in
  require "program lint"
    (Lint.errors
       (span "lint" (fun () -> Lint.run_program ~name:"instrumented software" info sw))
    = 0);
  require "SymbC"
    (match span "symbc" (fun () -> Symbad_symbc.Check.check info sw) with
    | Symbad_symbc.Check.Consistent _ -> true
    | Symbad_symbc.Check.Inconsistent _ -> false);
  String.concat "; "
    (List.map
       (fun (m : Level4.rtl_module) ->
         match cache with
         | None -> traced_module sp ~op ~count m
         | Some cache ->
             let r = span "cache" (fun () -> Level4.verify_module ~cache m) in
             require ("cache replay of " ^ m.module_name) r.Level4.cached;
             row_of_verdicts m.module_name ~mc:r.Level4.mc_verdict
               ~pcc:r.Level4.pcc_verdict)
       modules)

(* --- the workloads ---------------------------------------------------------- *)

(* The ROADMAP headline: the whole flow against an empty verdict cache,
   where level-4 SAT/MC/PCC is nearly all the time. *)
let flow_cold =
  let setup ~dir ~seed =
    let rng = Random.State.make [| seed |] in
    let w =
      { Face_app.size = 32; identities = 6; frames = script rng ~frames:2 ~identities:6 }
    in
    let reference = Face_app.reference_trace w in
    warm_up dir (root ());
    let cache = ref (fresh_cache dir) in
    {
      pass = [ "flow" ];
      new_pass = (fun () -> cache := fresh_cache dir);
      op =
        (fun _ ->
          let c = !cache in
          let before = counts_of c in
          let r = Flow.run ~cache:c ~workload:w () in
          let json = Flow.to_json ~timings:false r in
          fun () ->
            if Json.member "all_passed" (Json.parse_exn json) <> Some (Json.Bool true)
            then wrong "JSON report does not say all_passed";
            check_cache c ~before ~hits:0 ~misses:5 ~stores:5;
            let d = check_flow r ~reference ~cached:false in
            if d <> expected_digest then wrong "level 4: %s" d;
            d);
      traced = (fun sp ~op ~count _ -> traced_flow sp ~op ~count w);
      cache_counts = (fun () -> counts_of !cache);
      close = ignore;
    }
  in
  { name = "flow_cold"; setup }

(* The paper's PCC refinement loop (Section 3.4) on ROOT: the initial
   three-property plan, then the five later properties one per op in a
   seed-drawn order.  Many faults stay uncovered, and each walks every
   property — the opposite fault mix to flow_cold. *)
let refine_loop =
  let setup ~dir ~seed =
    let rng = Random.State.make [| seed |] in
    let root = root () in
    let initial = List.filteri (fun i _ -> i < 3) root.properties
    and later = shuffle rng (List.filteri (fun i _ -> i >= 3) root.properties) in
    let plans =
      Array.init 6 (fun k ->
          { root with properties = initial @ List.filteri (fun i _ -> i < k) later })
    in
    warm_up dir plans.(0);
    let cache = ref (fresh_cache dir) and last_covered = ref 0 in
    {
      pass = List.init 6 (fun k -> Printf.sprintf "root+%d" k);
      new_pass =
        (fun () ->
          cache := fresh_cache dir;
          last_covered := 0);
      op =
        (fun k ->
          let c = !cache in
          let before = counts_of c in
          let r = Level4.verify_module ~cache:c plans.(k) in
          fun () ->
            (* only a fully passing module is stored: the early plans
               fall short of PCC's 75 % gate *)
            let passing = List.for_all (fun v -> v.Verdict.passed) (Level4.module_verdicts r) in
            check_cache c ~before ~hits:0 ~misses:1 ~stores:(if passing then 1 else 0);
            match r.Level4.results with
            | Some { Level4.mc_reports; all_proved = true; pcc = Some pcc; _ } ->
                let props = 3 + k in
                if List.length mc_reports <> props then wrong "%d MC reports" (List.length mc_reports);
                if pcc.Pcc.detectable <> 42 then wrong "detectable %d" pcc.Pcc.detectable;
                if pcc.Pcc.covered < !last_covered then
                  wrong "coverage fell from %d to %d" !last_covered pcc.Pcc.covered;
                if k = 5 && pcc.Pcc.covered <> 41 then wrong "final coverage %d/42" pcc.Pcc.covered;
                last_covered := pcc.Pcc.covered;
                row_of_live "ROOT" mc_reports pcc
            | _ -> wrong "ROOT with %d properties: not all proved, or replayed" (3 + k));
      traced = (fun sp ~op ~count k -> traced_module sp ~op ~count plans.(k));
      cache_counts = (fun () -> counts_of !cache);
      close = ignore;
    }
  in
  { name = "refine_loop"; setup }

(* The everyday re-run: every level-4 module replays from a cache filled
   during set-up, so SAT does no work and the time goes to image inputs,
   level-1/2/3 simulation, LPV and ATPG.  Frame counts 4..16 once each
   per pass, so every seed puts the same work in a pass. *)
let flow_warm =
  let setup ~dir ~seed =
    let rng = Random.State.make [| seed |] in
    let ws =
      Array.of_list
        (List.map
           (fun frames ->
             { Face_app.size = 64; identities = 20; frames = script rng ~frames ~identities:20 })
           (shuffle rng (List.init 13 (fun i -> 4 + i))))
    in
    let references = Array.map Face_app.reference_trace ws in
    let cache = fresh_cache dir in
    let fill = Flow.run ~cache ~workload:ws.(0) () in
    ignore (check_flow fill ~reference:references.(0) ~cached:false);
    let warm_up = Flow.run ~cache ~workload:ws.(0) () in
    ignore (check_flow warm_up ~reference:references.(0) ~cached:true);
    {
      pass = Array.to_list (Array.map (fun w -> Printf.sprintf "%d frames" (List.length w.Face_app.frames)) ws);
      new_pass = ignore;
      op =
        (fun i ->
          let before = counts_of cache in
          let r = Flow.run ~cache ~workload:ws.(i) () in
          fun () ->
            check_cache cache ~before ~hits:5 ~misses:0 ~stores:0;
            check_flow r ~reference:references.(i) ~cached:true);
      traced = (fun sp ~op ~count i -> traced_flow sp ~op ~count ~cache ws.(i));
      cache_counts = (fun () -> counts_of cache);
      close = ignore;
    }
  in
  { name = "flow_warm"; setup }

(* Many short level-3 runs through the recovery paths (CRC re-download,
   bus retry, ECC, TMR vote): [symbad faults --mode both --trials 1] with
   a seed drawn per op, on two lanes. *)
let fault_campaign =
  let setup ~dir:_ ~seed =
    let rng = Random.State.make [| seed |] in
    let seeds = Array.init 10 (fun _ -> Random.State.bits rng) in
    let pool = Symbad_par.Par.create ~jobs:2 () in
    let run ?(span = fun f -> f ()) i =
      let one mode =
        span (fun () -> Campaign.run ~pool ~mode ~trials_per_kind:1 ~seed:seeds.(i) ())
      in
      let scrub = one Campaign.Scrub in
      (scrub, one Campaign.Tmr)
    in
    let check (scrub, tmr) =
      List.iter
        (fun (r : Campaign.report) ->
          if not (r.Campaign.passed && r.Campaign.control_ok && r.Campaign.skipped = 0)
          then wrong "%s campaign (seed %d) did not pass" r.Campaign.mode r.Campaign.seed)
        [ scrub; tmr ];
      Json.to_string (Campaign.to_json scrub) ^ Json.to_string (Campaign.to_json tmr)
    in
    ignore (check (run 0));
    {
      pass = Array.to_list (Array.map (Printf.sprintf "seed %d") seeds);
      new_pass = ignore;
      op =
        (fun i ->
          let reports = run i in
          fun () -> check reports);
      traced =
        (fun sp ~op ~count i ->
          let ((scrub, tmr) as reports) = run ~span:(Spans.span sp ~op "resil") i in
          List.iter
            (fun (r : Campaign.report) ->
              count "resil.trials"
                (List.length (List.filter (fun (o : Campaign.outcome) -> not o.Campaign.skipped) r.Campaign.outcomes)))
            [ scrub; tmr ];
          check reports);
      cache_counts = (fun () -> (0, 0, 0));
      close = (fun () -> Symbad_par.Par.shutdown pool);
    }
  in
  { name = "fault_campaign"; setup }

let all = [ flow_cold; refine_loop; flow_warm; fault_campaign ]
