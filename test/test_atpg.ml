(* Tests for the ATPG stack: coverage bookkeeping, the instrumented
   models, and the three generation engines. *)

open Symbad_atpg

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Coverage --- *)

let coverage_bookkeeping () =
  let c = Coverage.create () in
  Coverage.stmt c "s1";
  Coverage.stmt c "s1";
  Coverage.branch c "b" true;
  Coverage.cond c "c" false;
  Coverage.out_bits c "o" ~width:2 0b10;
  check "hit count" 2 (Coverage.hit_count c (Coverage.Stmt "s1"));
  check_bool "branch true hit" true (Coverage.is_hit c (Coverage.Branch ("b", true)));
  check_bool "branch false unhit" false (Coverage.is_hit c (Coverage.Branch ("b", false)));
  check_bool "bit polarity" true (Coverage.is_hit c (Coverage.Bit ("o", 1, true)));
  check_bool "bit polarity" true (Coverage.is_hit c (Coverage.Bit ("o", 0, false)))

let coverage_report_fractions () =
  let c = Coverage.create () in
  let universe =
    [ Coverage.Stmt "a"; Coverage.Stmt "b"; Coverage.Branch ("x", true);
      Coverage.Branch ("x", false) ]
  in
  Coverage.stmt c "a";
  Coverage.branch c "x" true;
  let r = Coverage.report ~universe c in
  Alcotest.(check (float 0.001)) "stmt 50%" 0.5 r.Coverage.statement;
  Alcotest.(check (float 0.001)) "branch 50%" 0.5 r.Coverage.branch_;
  check "missed" 2 (List.length r.Coverage.missed)

let coverage_merge () =
  let a = Coverage.create () and b = Coverage.create () in
  Coverage.stmt a "x";
  Coverage.stmt b "y";
  Coverage.merge ~into:a b;
  check_bool "merged" true
    (Coverage.is_hit a (Coverage.Stmt "x") && Coverage.is_hit a (Coverage.Stmt "y"))

(* --- Models --- *)

let root_model_functional () =
  let m = Models.root () in
  for n = 0 to 200 do
    let out = Model.run m [| n |] in
    Alcotest.(check int) (Printf.sprintf "isqrt %d" n)
      (Symbad_image.Root.isqrt n) out.(0)
  done

let root_model_faults_change_output () =
  let m = Models.root () in
  (* each semantic fault must change the output on some input *)
  List.iter
    (fun fid ->
      let fault = List.find (fun f -> f.Model.fid = fid) m.Model.faults in
      let differs =
        List.exists
          (fun n -> Model.run m [| n |] <> Model.run ~fault m [| n |])
          (List.init 256 (fun i -> i))
      in
      check_bool fid true differs)
    [ "skip-last-iter"; "wrong-init-bit"; "out[0]/sa0"; "out[0]/sa1" ]

let distance_model_uninit_fault () =
  let m = Models.distance () in
  let fault = List.find (fun f -> f.Model.fid = "uninit-acc") m.Model.faults in
  (* the memory-init bug shifts the accumulator by a constant *)
  let zeros = [| 0; 0; 0; 0; 0; 0; 0; 0 |] in
  let good = (Model.run m zeros).(0) in
  let bad = (Model.run ~fault m zeros).(0) in
  check "offset" 0x2A (bad - good)

let winner_model_functional () =
  let m = Models.winner () in
  check "argmin" 2 (Model.run m [| 9; 5; 1; 7 |]).(0);
  check "first wins ties" 0 (Model.run m [| 3; 3; 3; 3 |]).(0)

let model_input_masking () =
  let m = Models.root ~width:8 () in
  (* 0x1FF masked to 8 bits = 0xFF *)
  Alcotest.(check int) "masked" (Symbad_image.Root.isqrt 0xFF)
    (Model.run m [| 0x1FF |]).(0)

(* --- Engines --- *)

let random_engine_deterministic () =
  let m = Models.root () in
  let a = Random_engine.generate ~seed:9 ~count:10 m in
  let b = Random_engine.generate ~seed:9 ~count:10 m in
  check_bool "same suite" true (a = b);
  check "count" 10 (List.length a)

let genetic_reaches_full_branch_coverage () =
  let m = Models.root () in
  let tests = Genetic_engine.generate m in
  let r = Model.coverage_report m tests in
  (* the n=0 branch is a needle random sampling misses at width 12;
     the GA must find it *)
  Alcotest.(check (float 0.001)) "branch coverage" 1.0 r.Coverage.branch_

let genetic_suite_is_minimal_ish () =
  let m = Models.distance () in
  let tests = Genetic_engine.generate m in
  (* only coverage-increasing vectors are committed *)
  check_bool "small suite" true (List.length tests <= 24)

let fault_coverage_increases_with_tests () =
  let m = Models.winner () in
  let few = Random_engine.generate ~seed:3 ~count:2 m in
  let many = Random_engine.generate ~seed:3 ~count:128 m in
  check_bool "monotone" true
    (Model.fault_coverage m many >= Model.fault_coverage m few)

let sat_engine_full_on_fifo () =
  let nl = Symbad_hdl.Rtl_lib.fifo_ctrl ~addr_width:2 () in
  let r = Sat_engine.generate ~max_depth:8 nl in
  (* every output bit of the fifo controller is reachable at both
     polarities within 8 cycles *)
  check "covered" (List.length (Sat_engine.all_targets nl)) r.Sat_engine.covered;
  check "unreachable" 0 r.Sat_engine.unreachable

let sat_engine_proves_unreachability () =
  (* an output bit that can never be 1 *)
  let nl =
    Symbad_hdl.Netlist.make ~name:"const0" ~inputs:[ ("x", 2) ] ~registers:[]
      ~outputs:
        [ ("o", Symbad_hdl.Expr.and_ (Symbad_hdl.Expr.input "x")
              (Symbad_hdl.Expr.const ~width:2 0)) ]
  in
  let r = Sat_engine.generate ~max_depth:2 nl in
  check "unreachable polarities" 2 r.Sat_engine.unreachable;
  check "covered polarities" 2 r.Sat_engine.covered

let sat_engine_tests_replay () =
  (* generated sequences actually drive the targeted bit *)
  let nl = Symbad_hdl.Rtl_lib.fifo_ctrl ~addr_width:2 () in
  let target = { Sat_engine.output = "full"; bit = 0; polarity = true } in
  match Sat_engine.cover_target ~max_depth:8 nl target with
  | Sat_engine.Test seq ->
      let sim = Symbad_hdl.Simulator.create nl in
      let final_inputs = ref [] in
      List.iteri
        (fun i vec ->
          let inputs =
            List.mapi
              (fun j (n, w) -> (n, Symbad_hdl.Bitvec.make ~width:w vec.(j)))
              (Symbad_hdl.Netlist.inputs nl)
          in
          if i = List.length seq - 1 then final_inputs := inputs
          else Symbad_hdl.Simulator.step sim ~inputs)
        seq;
      check "full asserted" 1
        (Symbad_hdl.Bitvec.to_int
           (Symbad_hdl.Simulator.output sim ~inputs:!final_inputs "full"))
  | _ -> Alcotest.fail "expected test"

let conflicts n =
  Symbad_gov.Gov.create (Symbad_gov.Budget.make ~conflicts:n ())

let sat_engine_exhausted_gov () =
  let nl = Symbad_hdl.Rtl_lib.fifo_ctrl ~addr_width:2 () in
  let target = { Sat_engine.output = "full"; bit = 0; polarity = true } in
  match Sat_engine.cover_target ~max_depth:8 ~gov:(conflicts 0) nl target with
  | Sat_engine.Budget_exceeded -> ()
  | _ -> Alcotest.fail "expected budget exceeded"

let sat_engine_zero_budget_unresolved () =
  let nl = Symbad_hdl.Rtl_lib.fifo_ctrl ~addr_width:2 () in
  let r = Sat_engine.generate ~max_depth:8 ~gov:(conflicts 0) nl in
  check "every target unresolved"
    (List.length (Sat_engine.all_targets nl))
    r.Sat_engine.unresolved;
  check "nothing covered" 0 r.Sat_engine.covered;
  check "nothing proved unreachable" 0 r.Sat_engine.unreachable

let sat_engine_ample_gov_matches_unlimited () =
  let nl = Symbad_hdl.Rtl_lib.fifo_ctrl ~addr_width:2 () in
  let free = Sat_engine.generate ~max_depth:8 nl in
  let governed =
    Sat_engine.generate ~max_depth:8 ~gov:(conflicts 1_000_000) nl
  in
  check "covered" free.Sat_engine.covered governed.Sat_engine.covered;
  check "unreachable" free.Sat_engine.unreachable governed.Sat_engine.unreachable;
  check "unresolved" 0 governed.Sat_engine.unresolved;
  check_bool "same tests" true (free.Sat_engine.tests = governed.Sat_engine.tests)

let testbench_engine_comparison_shape () =
  (* the headline ATPG result: genetic >= random coverage at equal budget *)
  let m = Models.root () in
  match Testbench.compare_engines ~budget:32 m with
  | [ random; genetic ] ->
      check_bool "genetic at least as good" true
        (genetic.Testbench.coverage.Coverage.total
        >= random.Testbench.coverage.Coverage.total -. 0.001)
  | _ -> Alcotest.fail "expected two evaluations"

(* --- Memory inspection (Laerte++ capability) --- *)

let memcheck_detects_uninitialised_reads () =
  let mem, frame = Memcheck.accumulator_model ~clears_buffer:false ~cells:4 in
  ignore (frame [ 1; 2; 3; 4 ]);
  check "one violation per cell" 4 (List.length (Memcheck.violations mem));
  check_bool "not clean" false (Memcheck.is_clean mem)

let memcheck_clean_after_initialisation () =
  let mem, frame = Memcheck.accumulator_model ~clears_buffer:true ~cells:4 in
  ignore (frame [ 1; 2; 3; 4 ]);
  check_bool "clean" true (Memcheck.is_clean mem)

let memcheck_functional_difference () =
  (* the bug also corrupts results across frames: stale accumulation *)
  let _, buggy = Memcheck.accumulator_model ~clears_buffer:false ~cells:2 in
  let _, good = Memcheck.accumulator_model ~clears_buffer:true ~cells:2 in
  ignore (buggy [ 1; 1 ]);
  ignore (good [ 1; 1 ]);
  let b2 = buggy [ 2; 2 ] and g2 = good [ 2; 2 ] in
  check_bool "second frames differ" false (b2 = g2);
  Alcotest.(check (list int)) "good second frame" [ 2; 2 ] g2

let memcheck_violation_details () =
  let mem = Memcheck.create ~size:8 "m" in
  Memcheck.write mem ~addr:3 7;
  check "written cell reads back" 7 (Memcheck.read mem ~addr:3);
  let stale = Memcheck.read mem ~addr:0 in
  check "stale marker" 0x2A stale;
  (match Memcheck.violations mem with
  | [ v ] ->
      check "address" 0 v.Memcheck.address;
      check "access index" 2 v.Memcheck.access_index
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  check_bool "bounds" true
    (try ignore (Memcheck.read mem ~addr:99); false
     with Invalid_argument _ -> true)

let qcheck_root_model_matches_reference =
  QCheck.Test.make ~name:"instrumented ROOT model = reference isqrt" ~count:300
    QCheck.(int_bound 4095)
    (fun n ->
      let m = Models.root () in
      (Model.run m [| n |]).(0) = Symbad_image.Root.isqrt n)

let qcheck_distance_model_matches_reference =
  QCheck.Test.make ~name:"instrumented DISTANCE model = reference SSD"
    ~count:200
    QCheck.(pair (array_of_size (Gen.return 4) (int_bound 255))
              (array_of_size (Gen.return 4) (int_bound 255)))
    (fun (a, b) ->
      let m = Models.distance () in
      let out = (Model.run m (Array.append a b)).(0) in
      let ssd = Symbad_image.Distance.squared a b in
      out = min ssd 65535)

let suite =
  [
    Alcotest.test_case "coverage bookkeeping" `Quick coverage_bookkeeping;
    Alcotest.test_case "coverage report fractions" `Quick
      coverage_report_fractions;
    Alcotest.test_case "coverage merge" `Quick coverage_merge;
    Alcotest.test_case "ROOT model functional" `Quick root_model_functional;
    Alcotest.test_case "ROOT model faults observable" `Quick
      root_model_faults_change_output;
    Alcotest.test_case "DISTANCE uninit-acc fault" `Quick
      distance_model_uninit_fault;
    Alcotest.test_case "WINNER model functional" `Quick winner_model_functional;
    Alcotest.test_case "model input masking" `Quick model_input_masking;
    Alcotest.test_case "random engine deterministic" `Quick
      random_engine_deterministic;
    Alcotest.test_case "genetic reaches full branch coverage" `Quick
      genetic_reaches_full_branch_coverage;
    Alcotest.test_case "genetic commits only progress" `Quick
      genetic_suite_is_minimal_ish;
    Alcotest.test_case "fault coverage monotone" `Quick
      fault_coverage_increases_with_tests;
    Alcotest.test_case "SAT engine: full fifo coverage" `Quick
      sat_engine_full_on_fifo;
    Alcotest.test_case "SAT engine: proves unreachability" `Quick
      sat_engine_proves_unreachability;
    Alcotest.test_case "SAT engine: tests replay" `Quick sat_engine_tests_replay;
    Alcotest.test_case "SAT engine: exhausted governor" `Quick
      sat_engine_exhausted_gov;
    Alcotest.test_case "SAT engine: zero budget leaves targets unresolved"
      `Quick sat_engine_zero_budget_unresolved;
    Alcotest.test_case "SAT engine: ample governor matches unlimited" `Quick
      sat_engine_ample_gov_matches_unlimited;
    Alcotest.test_case "engine comparison shape" `Quick
      testbench_engine_comparison_shape;
    Alcotest.test_case "memcheck: uninitialised reads" `Quick
      memcheck_detects_uninitialised_reads;
    Alcotest.test_case "memcheck: clean after init" `Quick
      memcheck_clean_after_initialisation;
    Alcotest.test_case "memcheck: functional corruption" `Quick
      memcheck_functional_difference;
    Alcotest.test_case "memcheck: violation details" `Quick
      memcheck_violation_details;
    QCheck_alcotest.to_alcotest qcheck_root_model_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_distance_model_matches_reference;
  ]
