(* Tests for the FPGA device and context-placement models. *)

module Sim = Symbad_sim
module Tlm = Symbad_tlm
open Symbad_fpga

let check = Alcotest.(check int)

let r name area = Resource.algorithm ~area name

let context_area_and_lookup () =
  let c = Context.make "c1" [ r "dist" 900; r "regs" 100 ] in
  check "area" 1000 (Context.area c);
  Alcotest.(check bool) "provides dist" true (Context.provides c "dist");
  Alcotest.(check bool) "not provides root" false (Context.provides c "root")

let context_bitstream_size () =
  let c = Context.make "c1" [ r "dist" 100 ] in
  check "sizing" (512 + 800) (Context.bitstream_bytes c)

let context_rejects_duplicates () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Context.make "c" [ r "x" 1; r "x" 2 ]);
       false
     with Invalid_argument _ -> true)

let fpga_rejects_oversized_context () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Fpga.create ~capacity:100 ~contexts:[ Context.make "c" [ r "big" 500 ] ]
            "f");
       false
     with Invalid_argument _ -> true)

let fpga_reconfigure_and_require () =
  let k = Sim.Kernel.create () in
  let bus = Tlm.Bus.create () in
  let f =
    Fpga.create
      ~contexts:
        [ Context.make "c1" [ r "dist" 100 ]; Context.make "c2" [ r "root" 80 ] ]
      "fpga"
  in
  let failures = ref 0 in
  Sim.Kernel.spawn k (fun () ->
      (* calling before any load must fail *)
      (try Fpga.require f "dist" with Fpga.Inconsistent _ -> incr failures);
      Fpga.reconfigure f ~bus ~master:"cpu" "c1";
      Fpga.require f "dist";
      (* same context: no new reconfiguration *)
      Fpga.reconfigure f ~bus ~master:"cpu" "c1";
      (try Fpga.require f "root" with Fpga.Inconsistent _ -> incr failures);
      Fpga.reconfigure f ~bus ~master:"cpu" "c2";
      Fpga.require f "root");
  Sim.Kernel.run k;
  check "two consistency failures" 2 !failures;
  let s = Fpga.stats f in
  check "reconfigurations" 2 s.Fpga.reconfigurations;
  check "calls" 4 s.Fpga.resource_calls;
  Alcotest.(check bool) "time spent reconfiguring" true (s.Fpga.reconfig_ns > 0);
  (* bitstream bytes match the two downloaded contexts *)
  check "bitstream bytes"
    (Context.bitstream_bytes (Fpga.find_context f "c1")
    + Context.bitstream_bytes (Fpga.find_context f "c2"))
    s.Fpga.bitstream_bytes

let fpga_reconfig_takes_time () =
  let k = Sim.Kernel.create () in
  let bus = Tlm.Bus.create () in
  let f =
    Fpga.create ~program_ns_per_byte:2
      ~contexts:[ Context.make "c1" [ r "x" 10 ] ]
      "fpga"
  in
  let at = ref 0 in
  Sim.Kernel.spawn k (fun () ->
      Fpga.reconfigure f ~bus ~master:"cpu" "c1";
      at := Sim.Time.to_ns (Sim.Process.now ()));
  Sim.Kernel.run k;
  let bytes = Context.bitstream_bytes (Fpga.find_context f "c1") in
  (* the download happens in 8-byte bursts, each separately arbitrated *)
  let rec burst_ns remaining acc =
    if remaining <= 0 then acc
    else
      let chunk = min 8 remaining in
      burst_ns (remaining - chunk)
        (acc + Sim.Time.to_ns (Tlm.Bus.transfer_time bus chunk))
  in
  check "download + programming" (burst_ns bytes 0 + (2 * bytes)) !at

(* --- Placement --- *)

let placement_evaluate () =
  let resources = [ r "a" 10; r "b" 10 ] in
  let together = [ resources ] in
  let split = [ [ r "a" 10 ]; [ r "b" 10 ] ] in
  let calls = [ "a"; "b"; "a"; "b" ] in
  let n_together, _ = Placement.evaluate ~calls together in
  let n_split, _ = Placement.evaluate ~calls split in
  check "together loads once" 1 n_together;
  check "split thrashes" 4 n_split

let placement_feasible_partitions () =
  let resources = [ r "a" 10; r "b" 10; r "c" 10 ] in
  (* all partitions of 3 elements into <= 3 groups: Bell(3) = 5 *)
  check "bell number" 5
    (List.length
       (Placement.feasible_partitions ~capacity:100 ~max_contexts:3 resources));
  (* capacity forces singletons *)
  check "capacity-limited" 1
    (List.length
       (Placement.feasible_partitions ~capacity:10 ~max_contexts:3 resources));
  (* no empty groups are ever generated *)
  List.iter
    (fun p -> Alcotest.(check bool) "non-empty groups" true
        (List.for_all (fun g -> g <> []) p))
    (Placement.feasible_partitions ~capacity:100 ~max_contexts:3 resources)

let placement_best_partition () =
  let resources = [ r "a" 10; r "b" 10 ] in
  let calls = [ "a"; "b"; "a"; "b"; "a" ] in
  (match Placement.best_partition ~capacity:100 ~max_contexts:2 ~calls resources with
  | Some best -> check "alternating calls: one context" 1
      best.Placement.reconfigurations
  | None -> Alcotest.fail "expected a partition");
  match Placement.best_partition ~capacity:10 ~max_contexts:2 ~calls resources with
  | Some best ->
      check "forced split: thrash" 5 best.Placement.reconfigurations
  | None -> Alcotest.fail "expected a partition"

let placement_sweep_sorted () =
  let resources = [ r "a" 10; r "b" 10; r "c" 5 ] in
  let calls = [ "a"; "b"; "c"; "a"; "b"; "c" ] in
  let sweep = Placement.sweep ~capacity:100 ~max_contexts:3 ~calls resources in
  let costs = List.map (fun e -> e.Placement.reconfigurations) sweep in
  Alcotest.(check (list int)) "sorted ascending" (List.sort compare costs) costs

let qcheck_placement_single_context_optimal =
  QCheck.Test.make ~name:"one context is optimal when everything fits"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 12) (int_bound 2))
    (fun calls_idx ->
      let names = [| "a"; "b"; "c" |] in
      let calls = List.map (fun i -> names.(i)) calls_idx in
      let resources = [ r "a" 5; r "b" 5; r "c" 5 ] in
      match
        Placement.best_partition ~capacity:100 ~max_contexts:3 ~calls resources
      with
      | Some best -> best.Placement.reconfigurations <= 1
      | None -> false)

(* --- Dependability: CRC re-download, scrubbing, stuck resources --- *)

let two_ctx_fpga () =
  Fpga.create
    ~contexts:
      [ Context.make "c1" [ r "dist" 100 ]; Context.make "c2" [ r "root" 80 ] ]
    "fpga"

let fpga_noop_counter () =
  let k = Sim.Kernel.create () in
  let bus = Tlm.Bus.create () in
  let f = two_ctx_fpga () in
  Sim.Kernel.spawn k (fun () ->
      Fpga.reconfigure f ~bus ~master:"cpu" "c1";
      Fpga.reconfigure f ~bus ~master:"cpu" "c1";
      Fpga.reconfigure f ~bus ~master:"cpu" "c1");
  Sim.Kernel.run k;
  let s = Fpga.stats f in
  check "one real reconfiguration" 1 s.Fpga.reconfigurations;
  check "two no-op requests" 2 s.Fpga.noop_reconfigurations

let fpga_crc_redownload () =
  let k = Sim.Kernel.create () in
  let bus = Tlm.Bus.create () in
  let f = two_ctx_fpga () in
  (* flip one bitstream word on the first download attempt only *)
  Fpga.inject_download_fault f
    (Some (fun ~attempt ~word -> if attempt = 0 && word = 3 then 1 else 0));
  Sim.Kernel.spawn k (fun () ->
      Fpga.reconfigure f ~bus ~master:"cpu" "c1";
      Fpga.require f "dist");
  Sim.Kernel.run k;
  let s = Fpga.stats f in
  check "crc mismatch detected" 1 s.Fpga.crc_mismatches;
  check "one re-download" 1 s.Fpga.retried_downloads;
  check "no failed downloads" 0 s.Fpga.failed_downloads;
  check "context up" 1 s.Fpga.reconfigurations

(* With telemetry on, the reconfiguration span of a download that gives
   up completes, marked failed, and a span begun afterwards has no
   parent left open. *)
let fpga_download_gives_up () =
  let module Obs = Symbad_obs.Obs in
  let module Tracer = Symbad_obs.Tracer in
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let k = Sim.Kernel.create () in
      let bus = Tlm.Bus.create () in
      let f = two_ctx_fpga () in
      (* persistent corruption: every attempt flips a word *)
      Fpga.inject_download_fault f (Some (fun ~attempt:_ ~word:_ -> 1));
      let attempts = ref 0 in
      Sim.Kernel.spawn k (fun () ->
          try Fpga.reconfigure f ~bus ~master:"cpu" "c1"
          with Fpga.Download_failed { attempts = a; _ } -> attempts := a);
      Sim.Kernel.run k;
      check "gave up after three attempts" 3 !attempts;
      let s = Fpga.stats f in
      check "failed download counted" 1 s.Fpga.failed_downloads;
      check "nothing loaded" 0 s.Fpga.reconfigurations;
      Obs.end_span (Obs.begin_span "after");
      let spans name =
        List.filter
          (fun (c : Tracer.completed) -> String.equal c.Tracer.name name)
          (Tracer.completed_spans (Obs.tracer ()))
      in
      (match spans "fpga.reconfigure" with
      | [ c ] ->
          Alcotest.(check bool)
            "span marked failed" true
            (List.mem ("failed", Symbad_obs.Json.Bool true) c.Tracer.args)
      | l -> Alcotest.failf "%d fpga.reconfigure spans, expected 1" (List.length l));
      match spans "after" with
      | [ c ] ->
          Alcotest.(check (option int)) "no stale parent" None c.Tracer.parent
      | _ -> Alcotest.fail "the later span did not complete")

let fpga_scrub_reloads_upset () =
  let k = Sim.Kernel.create () in
  let bus = Tlm.Bus.create () in
  let f = two_ctx_fpga () in
  Sim.Kernel.spawn k (fun () ->
      Alcotest.(check bool) "scrub of empty fabric" false
        (Fpga.scrub f ~bus ~master:"scrubber");
      Fpga.reconfigure f ~bus ~master:"cpu" "c1";
      Alcotest.(check bool) "clean scrub" false
        (Fpga.scrub f ~bus ~master:"scrubber");
      Alcotest.(check bool) "upset lands" true (Fpga.upset_loaded f);
      Alcotest.(check bool) "corrupt" true (Fpga.loaded_corrupted f);
      Alcotest.(check bool) "scrub repairs" true
        (Fpga.scrub f ~bus ~master:"scrubber");
      Alcotest.(check bool) "repaired" false (Fpga.loaded_corrupted f));
  Sim.Kernel.run k;
  let s = Fpga.stats f in
  check "scrubs" 3 s.Fpga.scrubs;
  check "scrub reloads" 1 s.Fpga.scrub_reloads

let fpga_verify_previous_on_switch () =
  let k = Sim.Kernel.create () in
  let bus = Tlm.Bus.create () in
  let f = two_ctx_fpga () in
  Sim.Kernel.spawn k (fun () ->
      Fpga.reconfigure f ~bus ~master:"cpu" "c1";
      ignore (Fpga.upset_loaded f);
      (* readback-on-context-switch observes the upset before erasing it *)
      Fpga.reconfigure ~verify_previous:true f ~bus ~master:"cpu" "c2";
      Alcotest.(check bool) "clean after switch" false
        (Fpga.loaded_corrupted f);
      (* a corrupted context that is re-requested is repaired in place *)
      ignore (Fpga.upset_loaded f);
      Fpga.reconfigure ~verify_previous:true f ~bus ~master:"cpu" "c2";
      Alcotest.(check bool) "repaired in place" false
        (Fpga.loaded_corrupted f));
  Sim.Kernel.run k;
  let s = Fpga.stats f in
  check "both upsets observed" 2 s.Fpga.scrub_reloads;
  check "in-place repair is not a context switch" 2 s.Fpga.reconfigurations;
  check "no silent noop" 0 s.Fpga.noop_reconfigurations

(* satellite regression: an upset in a context that is NOT active is
   repaired by a targeted scrub of that context's resource area, and the
   active context keeps running undisturbed *)
let fpga_scrub_repairs_inactive_context () =
  let k = Sim.Kernel.create () in
  let bus = Tlm.Bus.create () in
  let f = two_ctx_fpga () in
  Sim.Kernel.spawn k (fun () ->
      Fpga.reconfigure f ~bus ~master:"cpu" "c1";
      Fpga.reconfigure f ~bus ~master:"cpu" "c2";
      (* c2 is active; the SEU lands in c1's resident frames *)
      Alcotest.(check bool) "upset lands in inactive c1" true
        (Fpga.upset_context f "c1");
      Alcotest.(check bool) "active context clean" false
        (Fpga.loaded_corrupted f);
      Alcotest.(check bool) "c1 flagged" true
        (Fpga.context_corrupted f (Fpga.find_context f "c1"));
      let reconfigs_before = (Fpga.stats f).Fpga.reconfigurations in
      Alcotest.(check bool) "targeted scrub repairs c1" true
        (Fpga.scrub ~context:"c1" f ~bus ~master:"scrubber");
      Alcotest.(check bool) "c1 repaired" false
        (Fpga.context_corrupted f (Fpga.find_context f "c1"));
      (* the repair never touched the active context *)
      (match Fpga.loaded f with
      | Some c -> Alcotest.(check string) "c2 still active" "c2" (Context.name c)
      | None -> Alcotest.fail "active context lost");
      check "no context switch" reconfigs_before
        (Fpga.stats f).Fpga.reconfigurations;
      Alcotest.(check bool) "active context still clean" false
        (Fpga.loaded_corrupted f));
  Sim.Kernel.run k;
  check "repair counted as a scrub reload" 1 (Fpga.stats f).Fpga.scrub_reloads

let tmr_fpga () =
  Fpga.create ~capacity:600 ~copies:3
    ~contexts:
      [ Context.make "c1" [ r "dist" 100 ]; Context.make "c2" [ r "root" 80 ] ]
    "fpga"

let fpga_tmr_create_validates () =
  Alcotest.(check bool) "copies=2 rejected" true
    (try
       ignore
         (Fpga.create ~copies:2 ~contexts:[ Context.make "c" [ r "a" 10 ] ] "f");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "3 copies must fit" true
    (try
       ignore
         (Fpga.create ~capacity:250 ~copies:3
            ~contexts:[ Context.make "c" [ r "a" 100 ] ]
            "f");
       false
     with Invalid_argument _ -> true);
  check "redundancy degree" 3 (Fpga.copies (tmr_fpga ()))

let fpga_tmr_vote_masks_and_repairs () =
  let k = Sim.Kernel.create () in
  let bus = Tlm.Bus.create () in
  let f = tmr_fpga () in
  Sim.Kernel.spawn k (fun () ->
      Fpga.reconfigure f ~bus ~master:"cpu" "c1";
      Alcotest.(check bool) "clean vote" true (Fpga.vote_and_repair f = `Clean);
      Alcotest.(check bool) "upset copy 1" true (Fpga.upset_loaded ~copy:1 f);
      Alcotest.(check bool) "corrupt until voted" true (Fpga.loaded_corrupted f);
      let t0 = Sim.Time.to_ns (Sim.Process.now ()) in
      Alcotest.(check bool) "lone dissenter masked" true
        (Fpga.vote_and_repair f = `Masked);
      (* the targeted repair rides the internal configuration port,
         overlapping voted operation: zero simulated time *)
      check "repair takes no simulated time" t0
        (Sim.Time.to_ns (Sim.Process.now ()));
      Alcotest.(check bool) "repaired" false (Fpga.loaded_corrupted f);
      Alcotest.(check bool) "clean again" true (Fpga.vote_and_repair f = `Clean);
      (* two corrupted copies defeat the vote *)
      ignore (Fpga.upset_loaded ~copy:0 f);
      ignore (Fpga.upset_loaded ~copy:2 f);
      Alcotest.(check bool) "double upset defeats the vote" true
        (Fpga.vote_and_repair f = `Corrupt));
  Sim.Kernel.run k;
  let s = Fpga.stats f in
  check "one disagreement" 1 s.Fpga.voter_disagreements;
  check "one targeted repair" 1 s.Fpga.targeted_repairs;
  let bytes = Context.bitstream_bytes (Fpga.find_context f "c1") in
  check "one copy's frames rewritten" bytes s.Fpga.repair_bytes;
  check "all three copies consume area" 300 s.Fpga.area_loaded

let fpga_simplex_vote_never_masks () =
  let k = Sim.Kernel.create () in
  let bus = Tlm.Bus.create () in
  let f = two_ctx_fpga () in
  Sim.Kernel.spawn k (fun () ->
      Fpga.reconfigure f ~bus ~master:"cpu" "c1";
      Alcotest.(check bool) "clean" true (Fpga.vote_and_repair f = `Clean);
      ignore (Fpga.upset_loaded f);
      Alcotest.(check bool) "simplex upset is corrupt, not masked" true
        (Fpga.vote_and_repair f = `Corrupt));
  Sim.Kernel.run k;
  check "no voter on a simplex fabric" 0 (Fpga.stats f).Fpga.voter_disagreements

(* the detection bound the CRC'd download and readback scrub stand on:
   a single flipped bit anywhere in the word stream always moves the
   CRC-32 (linearity: the remainder of a one-bit difference is never 0) *)
let qcheck_crc_detects_any_single_bit_flip =
  QCheck.Test.make ~name:"any single-bit flip changes the CRC" ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 16) (map (fun w -> w land 0xFFFF_FFFF) int))
        small_nat (int_bound 31))
    (fun (words, word_idx, bit) ->
      let words = Array.of_list words in
      let n = Array.length words in
      let idx = word_idx mod n in
      let clean = Crc.words (fun i -> words.(i)) n in
      let flipped =
        Crc.words
          (fun i -> if i = idx then words.(i) lxor (1 lsl bit) else words.(i))
          n
      in
      clean <> flipped)

(* The bit-serial CRC-32 step, one shift per bit: the reference the
   table-driven [Crc.update] must reproduce bit for bit. *)
let crc_reference crc word =
  let crc = ref (crc lxor (word land 0xFFFF_FFFF)) in
  for _ = 0 to 31 do
    crc := if !crc land 1 = 1 then (!crc lsr 1) lxor 0xEDB8_8320 else !crc lsr 1
  done;
  !crc

let crc_reference_words gen n =
  let crc = ref 0xFFFF_FFFF in
  for i = 0 to n - 1 do
    crc := crc_reference !crc (gen i)
  done;
  !crc lxor 0xFFFF_FFFF

(* zlib's CRC-32 of "12345678", read as two little-endian words *)
let crc_known_answer () =
  let words = [| 0x3433_3231; 0x3837_3635 |] in
  check "crc32(\"12345678\")" 0x9AE0_DAAF (Crc.words (Array.get words) 2)

let qcheck_crc_update_matches_reference =
  QCheck.Test.make ~name:"crc update matches the bit-serial loop" ~count:1000
    QCheck.(pair int (map (fun w -> w land 0xFFFF_FFFF) int))
    (fun (crc, word) -> Crc.update crc word = crc_reference crc word)

let qcheck_golden_crc_matches_reference =
  QCheck.Test.make ~name:"golden crc matches the bit-serial loop" ~count:100
    QCheck.(pair string (int_range 1 2_000))
    (fun (name, area) ->
      let c = Context.make name [ r "x" area ] in
      Context.golden_crc c
      = crc_reference_words (Context.bitstream_word c) (Context.bitstream_words c))

let fpga_stuck_resource () =
  let f = two_ctx_fpga () in
  Alcotest.(check bool) "responding" true (Fpga.responding f "dist");
  Fpga.set_stuck f "dist";
  Alcotest.(check bool) "wedged" false (Fpga.responding f "dist");
  Alcotest.(check bool) "others unaffected" true (Fpga.responding f "root");
  Fpga.clear_stuck f;
  Alcotest.(check bool) "released" true (Fpga.responding f "dist");
  Alcotest.(check bool) "healthy" true (Fpga.is_healthy f);
  Fpga.mark_unhealthy f;
  Alcotest.(check bool) "degraded" false (Fpga.is_healthy f)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let fpga_pp_stats_fields () =
  let f = two_ctx_fpga () in
  let s = Format.asprintf "%a" Fpga.pp_stats (Fpga.stats f) in
  List.iter
    (fun field ->
      Alcotest.(check bool)
        (Printf.sprintf "pp_stats mentions %s" field)
        true (contains_sub s field))
    [
      "reconfigs="; "noop="; "bitstream="; "reconfig_time="; "calls=";
      "crc_mismatches="; "retried_dl="; "failed_dl="; "scrubs=";
      "scrub_reloads="; "watchdog="; "copies="; "disagreements=";
      "targeted="; "repair="; "area=";
    ]

let suite =
  [
    Alcotest.test_case "context area and lookup" `Quick context_area_and_lookup;
    Alcotest.test_case "context bitstream size" `Quick context_bitstream_size;
    Alcotest.test_case "context rejects duplicates" `Quick
      context_rejects_duplicates;
    Alcotest.test_case "fpga rejects oversized context" `Quick
      fpga_rejects_oversized_context;
    Alcotest.test_case "fpga reconfigure/require" `Quick
      fpga_reconfigure_and_require;
    Alcotest.test_case "fpga reconfiguration timing" `Quick
      fpga_reconfig_takes_time;
    Alcotest.test_case "fpga noop counter" `Quick fpga_noop_counter;
    Alcotest.test_case "fpga crc re-download" `Quick fpga_crc_redownload;
    Alcotest.test_case "fpga download gives up" `Quick fpga_download_gives_up;
    Alcotest.test_case "fpga scrub reloads upset" `Quick
      fpga_scrub_reloads_upset;
    Alcotest.test_case "fpga verify-previous on switch" `Quick
      fpga_verify_previous_on_switch;
    Alcotest.test_case "fpga scrub repairs inactive context" `Quick
      fpga_scrub_repairs_inactive_context;
    Alcotest.test_case "fpga tmr create validates" `Quick
      fpga_tmr_create_validates;
    Alcotest.test_case "fpga tmr vote masks and repairs" `Quick
      fpga_tmr_vote_masks_and_repairs;
    Alcotest.test_case "fpga simplex vote never masks" `Quick
      fpga_simplex_vote_never_masks;
    Alcotest.test_case "fpga stuck resource" `Quick fpga_stuck_resource;
    Alcotest.test_case "fpga pp_stats fields" `Quick fpga_pp_stats_fields;
    Alcotest.test_case "placement evaluate" `Quick placement_evaluate;
    Alcotest.test_case "placement feasible partitions" `Quick
      placement_feasible_partitions;
    Alcotest.test_case "placement best partition" `Quick placement_best_partition;
    Alcotest.test_case "placement sweep sorted" `Quick placement_sweep_sorted;
    QCheck_alcotest.to_alcotest qcheck_placement_single_context_optimal;
    QCheck_alcotest.to_alcotest qcheck_crc_detects_any_single_bit_flip;
    Alcotest.test_case "crc known answer" `Quick crc_known_answer;
    QCheck_alcotest.to_alcotest qcheck_crc_update_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_golden_crc_matches_reference;
  ]
