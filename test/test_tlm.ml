(* Tests for the transaction-level modelling library. *)

module Sim = Symbad_sim
open Symbad_tlm

let check = Alcotest.(check int)

(* --- Transactions & transfer cost model --- *)

let transfer_cost () =
  let b = Bus.create ~width_bytes:4 ~period_ns:10 () in
  (* 1 word: arb + setup + 1 beat = 3 cycles *)
  check "4 bytes" 3 (Bus.transfer_cycles b 4);
  check "5 bytes" 4 (Bus.transfer_cycles b 5);
  check "0 bytes" 2 (Bus.transfer_cycles b 0);
  check "time" 30 (Sim.Time.to_ns (Bus.transfer_time b 4))

let bus_serialises () =
  let k = Sim.Kernel.create () in
  let b = Bus.create () in
  let done_at = ref [] in
  let master name =
    Sim.Kernel.spawn k (fun () ->
        Bus.transfer b (Transaction.make ~master:name ~target:"mem"
            ~kind:Transaction.Write ~bytes:4);
        done_at := (name, Sim.Time.to_ns (Sim.Process.now ())) :: !done_at)
  in
  master "m0";
  master "m1";
  Sim.Kernel.run k;
  (* each transfer takes 30ns; second master finishes at 60 *)
  Alcotest.(check (list (pair string int)))
    "serialised" [ ("m0", 30); ("m1", 60) ] (List.rev !done_at)

let bus_priority_grant () =
  let k = Sim.Kernel.create () in
  let b = Bus.create () in
  let order = ref [] in
  (* occupy the bus, then two waiters with different priorities *)
  Sim.Kernel.spawn k (fun () ->
      Bus.transfer ~priority:5 b
        (Transaction.make ~master:"hog" ~target:"t" ~kind:Transaction.Write
           ~bytes:40));
  Sim.Kernel.spawn k (fun () ->
      Sim.Process.wait (Sim.Time.ns 1);
      Bus.transfer ~priority:9 b
        (Transaction.make ~master:"low" ~target:"t" ~kind:Transaction.Write
           ~bytes:4);
      order := "low" :: !order);
  Sim.Kernel.spawn k (fun () ->
      Sim.Process.wait (Sim.Time.ns 2);
      Bus.transfer ~priority:1 b
        (Transaction.make ~master:"high" ~target:"t" ~kind:Transaction.Write
           ~bytes:4);
      order := "high" :: !order);
  Sim.Kernel.run k;
  Alcotest.(check (list string))
    "high priority granted first" [ "high"; "low" ] (List.rev !order)

let bus_report_accounts () =
  let k = Sim.Kernel.create () in
  let b = Bus.create () in
  Sim.Kernel.spawn k (fun () ->
      Bus.transfer b
        (Transaction.make ~master:"cpu" ~target:"fpga"
           ~kind:Transaction.Bitstream ~bytes:100);
      Bus.transfer b
        (Transaction.make ~master:"cpu" ~target:"mem" ~kind:Transaction.Read
           ~bytes:8));
  Sim.Kernel.run k;
  let r = Bus.report b in
  check "transactions" 2 r.Bus.transactions;
  check "bitstream bytes" 100 r.Bus.bitstream_bytes;
  check "data bytes" 8 r.Bus.data_bytes;
  Alcotest.(check bool) "utilisation positive" true (r.Bus.utilisation > 0.)

let bus_fifo_within_priority () =
  let k = Sim.Kernel.create () in
  let b = Bus.create () in
  let order = ref [] in
  Sim.Kernel.spawn k (fun () ->
      Bus.transfer b
        (Transaction.make ~master:"hog" ~target:"t" ~kind:Transaction.Write
           ~bytes:40));
  List.iteri
    (fun i name ->
      Sim.Kernel.spawn k (fun () ->
          Sim.Process.wait (Sim.Time.ns (i + 1));
          Bus.transfer ~priority:5 b
            (Transaction.make ~master:name ~target:"t" ~kind:Transaction.Write
               ~bytes:4);
          order := name :: !order))
    [ "w0"; "w1"; "w2" ];
  Sim.Kernel.run k;
  Alcotest.(check (list string)) "request order preserved"
    [ "w0"; "w1"; "w2" ] (List.rev !order)

let bus_wait_accounted () =
  let k = Sim.Kernel.create () in
  let b = Bus.create () in
  Sim.Kernel.spawn k (fun () ->
      Bus.transfer b
        (Transaction.make ~master:"first" ~target:"t" ~kind:Transaction.Write
           ~bytes:400));
  Sim.Kernel.spawn k (fun () ->
      Sim.Process.wait (Sim.Time.ns 1);
      Bus.transfer b
        (Transaction.make ~master:"second" ~target:"t" ~kind:Transaction.Write
           ~bytes:4));
  Sim.Kernel.run k;
  let r = Bus.report b in
  let second = List.assoc "second" r.Bus.per_master in
  Alcotest.(check bool) "waited for the grant" true (second.Bus.wait_ns > 0)

(* --- Annotation --- *)

let annotation_targets () =
  let a = Annotation.default in
  check "sw" 120 (Annotation.cycles a ~target:Annotation.Sw ~weight:10);
  check "hw" 10 (Annotation.cycles a ~target:Annotation.Hw ~weight:10);
  check "fpga" 20 (Annotation.cycles a ~target:Annotation.Fpga ~weight:10)

let annotation_rejects_bad () =
  Alcotest.(check bool) "negative weight" true
    (try
       ignore
         (Annotation.cycles Annotation.default ~target:Annotation.Sw
            ~weight:(-1));
       false
     with Invalid_argument _ -> true)

let profile_ranking () =
  let p = Annotation.Profile.create () in
  Annotation.Profile.record p ~task:"small" ~units:10;
  Annotation.Profile.record p ~task:"big" ~units:500;
  Annotation.Profile.record p ~task:"big" ~units:500;
  Annotation.Profile.record p ~task:"mid" ~units:100;
  Alcotest.(check (list (pair string int)))
    "ranking" [ ("big", 1000); ("mid", 100); ("small", 10) ]
    (Annotation.Profile.ranking p);
  check "units per firing" 500 (Annotation.Profile.units_per_firing p "big");
  check "unknown task" 0 (Annotation.Profile.units_per_firing p "nope")

(* --- Cpu --- *)

let cpu_accounts_cycles () =
  let k = Sim.Kernel.create () in
  let c = Cpu.create ~period_ns:20 () in
  Sim.Kernel.spawn k (fun () ->
      Cpu.execute c ~cycles:100;
      Cpu.execute c ~cycles:50);
  Sim.Kernel.run k;
  let s = Cpu.stats c in
  check "cycles" 150 s.Cpu.executed_cycles;
  check "busy" 3000 s.Cpu.busy_ns;
  check "firings" 2 s.Cpu.firings;
  check "sim time" 3000 (Sim.Time.to_ns (Sim.Kernel.stats k).Sim.Kernel.final_time)

(* --- Fault injection: ERROR/RETRY responses, bounded retry --- *)

let bus_retry_then_ok () =
  let k = Sim.Kernel.create () in
  let b = Bus.create () in
  (* the slave answers the first two attempts of the first transaction
     with RETRY, then OKAY *)
  Bus.inject_faults b
    (Some (fun _txn ~attempt -> if attempt < 2 then Bus.Retry else Bus.Okay));
  Sim.Kernel.spawn k (fun () ->
      Bus.transfer b
        (Transaction.make ~master:"m" ~target:"mem" ~kind:Transaction.Write
           ~bytes:4));
  Sim.Kernel.run k;
  let r = Bus.report b in
  check "retry responses" 2 r.Bus.retry_responses;
  check "error responses" 0 r.Bus.error_responses;
  check "failed transfers" 0 r.Bus.failed_transfers;
  (* only the successful attempt is accounted as a transaction *)
  check "transactions" 1 r.Bus.transactions;
  check "bytes" 4 r.Bus.data_bytes

let bus_error_exhausts_retries () =
  let k = Sim.Kernel.create () in
  let b = Bus.create () in
  Bus.inject_faults b (Some (fun _txn ~attempt:_ -> Bus.Error));
  let failed = ref None in
  Sim.Kernel.spawn k (fun () ->
      try
        Bus.transfer b
          (Transaction.make ~master:"m" ~target:"mem" ~kind:Transaction.Write
             ~bytes:4)
      with Bus.Transfer_failed { attempts; _ } -> failed := Some attempts);
  Sim.Kernel.run k;
  (* the first attempt and three retries *)
  Alcotest.(check (option int)) "gave up after retries" (Some 4) !failed;
  let r = Bus.report b in
  check "error responses" 4 r.Bus.error_responses;
  check "failed transfers" 1 r.Bus.failed_transfers;
  check "no successful transactions" 0 r.Bus.transactions

let qcheck_transfer_monotone =
  QCheck.Test.make ~name:"bus transfer cost monotone in size" ~count:200
    QCheck.(pair (int_bound 4096) (int_bound 4096))
    (fun (a, b) ->
      let bus = Bus.create () in
      let ca = Bus.transfer_cycles bus a and cb = Bus.transfer_cycles bus b in
      if a <= b then ca <= cb else ca >= cb)

(* --- SEC-DED ECC: the codec and the protected bus --- *)

let word_gen = QCheck.map (fun w -> w land 0xFFFF_FFFF) QCheck.int

let qcheck_ecc_roundtrip =
  QCheck.Test.make ~name:"ecc clean codeword decodes to the data" ~count:200
    word_gen
    (fun w -> Ecc.decode (Ecc.encode w) = Ecc.Ok w)

(* every one of the 39 possible single-bit flips is corrected, back to
   the exact data word and naming the exact flipped position *)
let qcheck_ecc_corrects_every_single_flip =
  QCheck.Test.make ~name:"ecc corrects every single-bit flip" ~count:100
    word_gen
    (fun w ->
      let cw = Ecc.encode w in
      List.for_all
        (fun bit ->
          Ecc.decode (cw lxor (1 lsl bit)) = Ecc.Corrected { word = w; bit })
        (List.init Ecc.code_bits Fun.id))

(* every one of the 39*38/2 double flips is detected and never
   miscorrected — the distance-4 guarantee the retry path stands on *)
let qcheck_ecc_detects_every_double_flip =
  QCheck.Test.make ~name:"ecc detects (never miscorrects) double flips"
    ~count:40 word_gen
    (fun w ->
      let cw = Ecc.encode w in
      List.for_all
        (fun i ->
          List.for_all
            (fun j ->
              i >= j
              || Ecc.decode (cw lxor (1 lsl i) lxor (1 lsl j))
                 = Ecc.Double_error)
            (List.init Ecc.code_bits Fun.id))
        (List.init Ecc.code_bits Fun.id))

let ecc_transfer_widening () =
  let plain = Bus.create ~width_bytes:4 ~period_ns:10 () in
  let ecc = Bus.create ~ecc:true ~width_bytes:4 ~period_ns:10 () in
  Alcotest.(check bool) "ecc flag" true (Bus.ecc ecc);
  Alcotest.(check bool) "plain flag" false (Bus.ecc plain);
  (* 4 data bytes ride as ceil(4*39/32) = 5 coded bytes: 2 beats *)
  check "plain word" 3 (Bus.transfer_cycles plain 4);
  check "coded word" 4 (Bus.transfer_cycles ecc 4);
  (* 32 data bytes -> 39 coded bytes: 10 beats instead of 8 *)
  check "plain burst" 10 (Bus.transfer_cycles plain 32);
  check "coded burst" 12 (Bus.transfer_cycles ecc 32)

let write_txn =
  Transaction.make ~master:"m" ~target:"mem" ~kind:Transaction.Write ~bytes:4

let run_corrupted ~ecc ~flips =
  let k = Sim.Kernel.create () in
  let b = Bus.create ~ecc () in
  Bus.inject_corruption b
    (Some (fun _txn ~attempt -> if attempt = 0 then flips else 0));
  Sim.Kernel.spawn k (fun () -> Bus.transfer b write_txn);
  Sim.Kernel.run k;
  Bus.report b

let bus_ecc_corrects_single () =
  let r = run_corrupted ~ecc:true ~flips:1 in
  check "corrected in place" 1 r.Bus.ecc_corrected;
  check "no double" 0 r.Bus.ecc_double_errors;
  (* the masking is free of the retry round-trip: no ERROR, no retry,
     the first attempt completes *)
  check "no error responses" 0 r.Bus.error_responses;
  check "no failed transfers" 0 r.Bus.failed_transfers;
  check "one transaction" 1 r.Bus.transactions

let bus_ecc_double_recovers_by_retry () =
  let r = run_corrupted ~ecc:true ~flips:2 in
  check "double detected" 1 r.Bus.ecc_double_errors;
  check "nothing miscorrected" 0 r.Bus.ecc_corrected;
  check "recovered by retry" 1 r.Bus.transactions;
  check "no failed transfers" 0 r.Bus.failed_transfers

let bus_unprotected_corruption_is_an_error () =
  let r = run_corrupted ~ecc:false ~flips:1 in
  check "surfaces as ERROR" 1 r.Bus.error_responses;
  check "no ecc counters" 0 (r.Bus.ecc_corrected + r.Bus.ecc_double_errors);
  check "recovered by retry" 1 r.Bus.transactions

let suite =
  [
    Alcotest.test_case "transfer cost model" `Quick transfer_cost;
    Alcotest.test_case "bus serialises masters" `Quick bus_serialises;
    Alcotest.test_case "bus priority arbitration" `Quick bus_priority_grant;
    Alcotest.test_case "bus report accounting" `Quick bus_report_accounts;
    Alcotest.test_case "bus FIFO within priority" `Quick
      bus_fifo_within_priority;
    Alcotest.test_case "bus wait accounting" `Quick bus_wait_accounted;
    Alcotest.test_case "bus retry then ok" `Quick bus_retry_then_ok;
    Alcotest.test_case "bus error exhausts retries" `Quick
      bus_error_exhausts_retries;
    Alcotest.test_case "annotation per-target cost" `Quick annotation_targets;
    Alcotest.test_case "annotation input validation" `Quick
      annotation_rejects_bad;
    Alcotest.test_case "profile ranking" `Quick profile_ranking;
    Alcotest.test_case "cpu accounts cycles" `Quick cpu_accounts_cycles;
    QCheck_alcotest.to_alcotest qcheck_transfer_monotone;
    QCheck_alcotest.to_alcotest qcheck_ecc_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_ecc_corrects_every_single_flip;
    QCheck_alcotest.to_alcotest qcheck_ecc_detects_every_double_flip;
    Alcotest.test_case "ecc transfer widening" `Quick ecc_transfer_widening;
    Alcotest.test_case "ecc bus corrects a single flip in place" `Quick
      bus_ecc_corrects_single;
    Alcotest.test_case "ecc bus recovers a double flip by retry" `Quick
      bus_ecc_double_recovers_by_retry;
    Alcotest.test_case "unprotected bus corruption is an ERROR" `Quick
      bus_unprotected_corruption_is_an_error;
  ]
