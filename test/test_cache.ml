(* Tests for the content-addressed verdict cache: key sensitivity, the
   store, level-4 replay and the warm-run identity of the flow report. *)

open Symbad_core
module Cache = Symbad_cache.Cache
module Key = Symbad_cache.Key
module Budget = Symbad_gov.Budget
module Netlist = Symbad_hdl.Netlist
module E = Symbad_hdl.Expr
module Prop = Symbad_mc.Prop

let check_bool = Alcotest.(check bool)

(* unique scratch directories under the system temp dir *)
let scratch_counter = ref 0

let scratch () =
  incr scratch_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "symbad_cache_test_%d_%d" (Unix.getpid ())
       !scratch_counter)

let with_scratch f =
  let dir = scratch () in
  Fun.protect ~finally:(fun () -> Flow_fixture.rm_rf dir) (fun () -> f dir)

(* --- keys -------------------------------------------------------------- *)

let counter ~threshold =
  Netlist.make ~name:"cnt"
    ~inputs:[ ("tick", 1) ]
    ~registers:
      [
        {
          Netlist.name = "n";
          width = 3;
          init = Symbad_hdl.Bitvec.make ~width:3 0;
          next = E.mux (E.input "tick") (E.add (E.reg "n") (E.const ~width:3 1)) (E.reg "n");
        };
      ]
    ~outputs:[ ("n", E.reg "n") ]
  |> fun nl ->
  ( nl,
    [
      Prop.make ~name:"bound" (E.ule (E.reg "n") (E.const ~width:3 threshold));
    ] )

let key_of ?(threshold = 7) ?(budget = Budget.unlimited) ?(escalate = false)
    () =
  let netlist, props = counter ~threshold in
  Key.make ~netlist ~props ~budget ~escalate

let key_deterministic () =
  Alcotest.(check string) "same inputs same key" (key_of ()) (key_of ());
  Alcotest.(check int) "32 hex chars" 32 (String.length (key_of ()))

let key_sensitivity () =
  let base = key_of () in
  check_bool "property edit changes key" true (base <> key_of ~threshold:6 ());
  check_bool "budget class changes key" true
    (base <> key_of ~budget:{ Budget.unlimited with Budget.conflicts = Some 100 } ());
  check_bool "escalation changes key" true (base <> key_of ~escalate:true ());
  (* the deadline instant is wall-clock state and must not enter keys;
     only its presence is part of the budget class *)
  let at t = { Budget.unlimited with Budget.deadline = Some t } in
  check_bool "deadline presence changes key" true
    (base <> key_of ~budget:(at 1.) ());
  Alcotest.(check string) "deadline instant irrelevant"
    (key_of ~budget:(at 1.) ())
    (key_of ~budget:(at 2.) ())

(* --- the store --------------------------------------------------------- *)

let store_roundtrip () =
  with_scratch @@ fun dir ->
  let module Json = Symbad_obs.Json in
  let c = Cache.create ~dir () in
  let k = key_of () in
  let find () = Cache.find c k Option.some in
  check_bool "cold miss" true (find () = None);
  Cache.store c k (Json.Obj [ ("x", Json.Int 1) ]);
  (match find () with
  | Some (Json.Obj [ ("x", Json.Int 1) ]) -> ()
  | _ -> Alcotest.fail "expected the stored document back");
  (* a corrupt entry reads as a miss, never a failure *)
  let oc = open_out (Filename.concat dir (k ^ ".json")) in
  output_string oc "{not json";
  close_out oc;
  check_bool "corrupt entry is a miss" true (find () = None);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c);
  Alcotest.(check int) "stores" 1 (Cache.stores c)

(* A directory whose parents do not exist yet is created whole, so the
   entry persists and the next lookup hits. *)
let store_nested_dir () =
  with_scratch @@ fun root ->
  let dir = Filename.concat (Filename.concat root "a") "b" in
  let c = Cache.create ~dir () in
  let k = key_of () in
  Cache.store c k (Symbad_obs.Json.Obj []);
  Alcotest.(check int) "stored" 1 (Cache.stores c);
  check_bool "hit under the nested dir" true
    (Cache.find c k Option.some <> None)

(* --- level-4 replay ---------------------------------------------------- *)

let first_module () = List.hd (Level4.modules ())

let level4_hit_and_replay () =
  with_scratch @@ fun dir ->
  let cache = Cache.create ~dir () in
  let m = first_module () in
  let cold = Level4.verify_module ~cache m in
  check_bool "cold run is live" true (not cold.Level4.cached);
  check_bool "cold run stored" true (Cache.stores cache = 1);
  let warm = Level4.verify_module ~cache m in
  check_bool "warm run replays" true warm.Level4.cached;
  check_bool "no rich results on a hit" true (warm.Level4.results = None);
  (* replayed rows carry the same verdicts, marked cached *)
  List.iter2
    (fun (a : Verdict.t) (b : Verdict.t) ->
      Alcotest.(check string) "name" a.Verdict.name b.Verdict.name;
      check_bool "passed" true (a.Verdict.passed = b.Verdict.passed);
      Alcotest.(check string) "detail" a.Verdict.detail b.Verdict.detail;
      check_bool "marked cached" true b.Verdict.cached)
    (Level4.module_verdicts cold)
    (Level4.module_verdicts warm)

(* A stored row whose [passed] contradicts its outcome is rejected, so
   the entry misses and the module re-verifies live. *)
let contradictory_row_reverifies () =
  with_scratch @@ fun dir ->
  let module Json = Symbad_obs.Json in
  let cache = Cache.create ~dir () in
  let m = first_module () in
  let cold = Level4.verify_module ~cache m in
  let entry =
    match
      List.filter
        (fun f -> Filename.check_suffix f ".json")
        (Array.to_list (Sys.readdir dir))
    with
    | [ f ] -> Filename.concat dir f
    | fs -> Alcotest.failf "expected one stored entry, found %d" (List.length fs)
  in
  let set k v = function
    | Json.Obj fields ->
        Json.Obj (List.map (fun (k', x) -> if k' = k then (k, v) else (k', x)) fields)
    | j -> j
  in
  (* the MC row (the second) claims a disproof yet still passes *)
  let tampered =
    match Json.parse_exn (In_channel.with_open_bin entry In_channel.input_all) with
    | Json.Obj _ as doc -> (
        match Option.bind (Json.member "verdicts" doc) Json.to_list with
        | Some [ lint; mc; pcc ] ->
            set "verdicts"
              (Json.List [ lint; set "outcome" (Json.Str "disproved") mc; pcc ])
              doc
        | _ -> Alcotest.fail "expected three stored rows")
    | _ -> Alcotest.fail "expected a JSON object"
  in
  Out_channel.with_open_bin entry (fun oc ->
      output_string oc (Json.to_string tampered));
  let rerun = Level4.verify_module ~cache m in
  check_bool "tampered entry re-verifies" true (not rerun.Level4.cached);
  Alcotest.(check (pair int int)) "counted as a miss, not a hit" (0, 2)
    (Cache.hits cache, Cache.misses cache);
  check_bool "live MC verdict" true
    (rerun.Level4.mc_verdict = cold.Level4.mc_verdict
    && rerun.Level4.mc_verdict.Verdict.passed
    && rerun.Level4.mc_verdict.Verdict.outcome = Verdict.Proved)

let verdict_json_rejects_contradictions () =
  let parses passed outcome =
    Verdict.of_json
      (Verdict.to_json ~timings:false
         { (Verdict.make ~name:"row" outcome) with Verdict.passed })
    <> None
  in
  check_bool "proved, passed" true (parses true Verdict.Proved);
  check_bool "proved, failed" false (parses false Verdict.Proved);
  check_bool "disproved, passed" false (parses true (Verdict.Disproved "w"));
  check_bool "disproved, failed" true (parses false (Verdict.Disproved "w"));
  check_bool "inconclusive, passed" false
    (parses true (Verdict.Inconclusive "r"));
  check_bool "inconclusive, failed" true
    (parses false (Verdict.Inconclusive "r"));
  let coverage = Verdict.Coverage { hit = 3; total = 4 } in
  check_bool "coverage, passed" true (parses true coverage);
  check_bool "coverage, failed" true (parses false coverage)

let level4_miss_on_edit () =
  with_scratch @@ fun dir ->
  let cache = Cache.create ~dir () in
  let m = first_module () in
  ignore (Level4.verify_module ~cache m);
  (* dropping a property is an edit: the key changes and the warm run
     must not replay the stale entry *)
  let edited =
    { m with Level4.properties = [ List.hd m.Level4.properties ] }
  in
  let r = Level4.verify_module ~cache edited in
  check_bool "edited module misses" true (not r.Level4.cached)

let inconclusive_never_stored () =
  with_scratch @@ fun dir ->
  let cache = Cache.create ~dir () in
  let m = first_module () in
  (* a starved governor degrades the run; the partial result must not
     poison the cache *)
  let gov =
    Symbad_gov.Gov.create ~label:"starved"
      { Budget.unlimited with Budget.conflicts = Some 1 }
  in
  let r = Level4.verify_module ~cache ~gov m in
  check_bool "degraded run not stored" true (Cache.stores cache = 0);
  check_bool "degraded run not a hit" true (not r.Level4.cached)

(* --- the flow: warm-run identity across pool widths -------------------- *)

let md5 s = Digest.to_hex (Digest.string s)

let contains needle hay =
  let nl = String.length needle and tl = String.length hay in
  let rec go i = i + nl <= tl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* every occurrence of [needle] removed from [hay] *)
let strip needle hay =
  let nl = String.length needle and tl = String.length hay in
  let b = Buffer.create tl in
  let rec go i =
    if i < tl then
      if i + nl <= tl && String.sub hay i nl = needle then go (i + nl)
      else (
        Buffer.add_char b hay.[i];
        go (i + 1))
  in
  go 0;
  Buffer.contents b

(* The cold run is the shared fixture, which filled its scratch cache;
   both warm runs replay from it. *)
let flow_warm_identity_across_jobs () =
  let { Flow_fixture.report = cold; cache; _ } =
    Lazy.force Flow_fixture.cold
  in
  let w = Face_app.smoke_workload in
  let hits = Cache.hits cache and misses = Cache.misses cache in
  let warm1 = Flow.run ~cache ~workload:w () in
  Alcotest.(check int) "one hit per level-4 module"
    (List.length (Level4.modules ()))
    (Cache.hits cache - hits);
  Alcotest.(check int) "no miss" misses (Cache.misses cache);
  let level4 = List.find (fun l -> l.Flow.level = 4) warm1.Flow.levels in
  check_bool "every level-4 row replayed" true
    (List.for_all (fun v -> v.Verdict.cached) level4.Flow.verifications);
  let warm2 =
    Symbad_par.Par.with_pool ~jobs:2 (fun pool ->
        Flow.run ~pool ~cache ~workload:w ())
  in
  let c = Flow.to_json ~timings:false cold in
  let j1 = Flow.to_json ~timings:false warm1 in
  check_bool "warm report carries cached rows" true (contains "cached" j1);
  check_bool "cold report does not" true (not (contains "cached" c));
  Alcotest.(check string) "warm minus cached markers equals cold" c
    (strip {|,"cached":true|} j1);
  Alcotest.(check string) "warm md5 is pool-width invariant" (md5 j1)
    (md5 (Flow.to_json ~timings:false warm2));
  check_bool "cold and warm agree on the outcome" true
    (cold.Flow.all_passed = warm1.Flow.all_passed)

let suite =
  [
    Alcotest.test_case "key deterministic" `Quick key_deterministic;
    Alcotest.test_case "key sensitivity" `Quick key_sensitivity;
    Alcotest.test_case "store roundtrip" `Quick store_roundtrip;
    Alcotest.test_case "store nested dir" `Quick store_nested_dir;
    Alcotest.test_case "level4 hit and replay" `Quick level4_hit_and_replay;
    Alcotest.test_case "level4 miss on edit" `Quick level4_miss_on_edit;
    Alcotest.test_case "contradictory row re-verifies" `Quick
      contradictory_row_reverifies;
    Alcotest.test_case "verdict json rejects contradictions" `Quick
      verdict_json_rejects_contradictions;
    Alcotest.test_case "inconclusive never stored" `Quick
      inconclusive_never_stored;
    Alcotest.test_case "flow warm identity across jobs" `Slow
      flow_warm_identity_across_jobs;
  ]
