(* Tests for the RTL IR: bit vectors, expressions, netlists, simulation,
   CNF unrolling, and the predefined IP library. *)

open Symbad_hdl
module I = Symbad_image

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bv w v = Bitvec.make ~width:w v

(* --- Bitvec --- *)

let bitvec_wraparound () =
  check "add wraps" 0 (Bitvec.to_int (Bitvec.add (bv 4 15) (bv 4 1)));
  check "sub wraps" 15 (Bitvec.to_int (Bitvec.sub (bv 4 0) (bv 4 1)));
  check "mul wraps" 4 (Bitvec.to_int (Bitvec.mul (bv 4 6) (bv 4 6)));
  check "neg" 13 (Bitvec.to_int (Bitvec.neg (bv 4 3)))

let bitvec_bit_ops () =
  check "and" 0b1000 (Bitvec.to_int (Bitvec.logand (bv 4 0b1100) (bv 4 0b1010)));
  check "or" 0b1110 (Bitvec.to_int (Bitvec.logor (bv 4 0b1100) (bv 4 0b1010)));
  check "xor" 0b0110 (Bitvec.to_int (Bitvec.logxor (bv 4 0b1100) (bv 4 0b1010)));
  check "not" 0b0011 (Bitvec.to_int (Bitvec.lognot (bv 4 0b1100)));
  check_bool "bit" true (Bitvec.bit (bv 4 0b0100) 2);
  check_bool "ult" true (Bitvec.ult (bv 8 3) (bv 8 250))

let bitvec_slice_concat () =
  check "slice" 0b101 (Bitvec.to_int (Bitvec.slice (bv 8 0b01011000) ~hi:6 ~lo:4));
  let c = Bitvec.concat (bv 4 0b1010) (bv 4 0b0101) in
  check "concat value" 0b10100101 (Bitvec.to_int c);
  check "concat width" 8 (Bitvec.width c);
  check "extend" 5 (Bitvec.to_int (Bitvec.extend (bv 3 5) ~width:8))

let bitvec_rejects () =
  check_bool "width 0" true
    (try ignore (bv 0 1); false with Invalid_argument _ -> true);
  check_bool "mismatch" true
    (try ignore (Bitvec.add (bv 4 1) (bv 5 1)); false
     with Invalid_argument _ -> true)

(* --- Expr width checking & evaluation --- *)

let nl_counter = Rtl_lib.counter ~width:4

let expr_widths () =
  check "reg width" 4 (Netlist.expr_width nl_counter (Expr.reg "count"));
  check "eq width" 1
    (Netlist.expr_width nl_counter (Expr.eq (Expr.reg "count") (Expr.const ~width:4 3)));
  check_bool "mismatch rejected" true
    (try
       ignore
         (Netlist.expr_width nl_counter
            (Expr.add (Expr.reg "count") (Expr.const ~width:5 1)));
       false
     with Invalid_argument _ -> true);
  check_bool "unknown name rejected" true
    (try ignore (Netlist.expr_width nl_counter (Expr.reg "nope")); false
     with Invalid_argument _ -> true)

let expr_eval () =
  let input _ = bv 8 0 and reg _ = bv 8 100 in
  let e = Expr.mux
      (Expr.ult (Expr.reg "x") (Expr.const ~width:8 200))
      (Expr.add (Expr.reg "x") (Expr.const ~width:8 1))
      (Expr.const ~width:8 0)
  in
  check "mux taken" 101 (Bitvec.to_int (Expr.eval ~input ~reg e))

(* --- Netlist validation --- *)

let netlist_validation () =
  check_bool "duplicate name" true
    (try
       ignore
         (Netlist.make ~name:"bad"
            ~inputs:[ ("x", 1); ("x", 2) ]
            ~registers:[] ~outputs:[]);
       false
     with Invalid_argument _ -> true);
  check_bool "next width mismatch" true
    (try
       ignore
         (Netlist.make ~name:"bad" ~inputs:[]
            ~registers:
              [
                {
                  Netlist.name = "r";
                  width = 4;
                  init = Bitvec.zero ~width:4;
                  next = Expr.const ~width:5 0;
                };
              ]
            ~outputs:[]);
       false
     with Invalid_argument _ -> true)

let netlist_area_positive () =
  check_bool "counter area" true (Netlist.area nl_counter > 0);
  check_bool "distance bigger than counter" true
    (Netlist.area (Rtl_lib.distance_datapath ()) > Netlist.area nl_counter)

(* --- Simulator --- *)

let simulator_counter () =
  let sim = Simulator.create nl_counter in
  let en = [ ("enable", bv 1 1); ("clear", bv 1 0) ] in
  let idle = [ ("enable", bv 1 0); ("clear", bv 1 0) ] in
  let clr = [ ("enable", bv 1 0); ("clear", bv 1 1) ] in
  for _ = 1 to 5 do
    Simulator.step sim ~inputs:en
  done;
  check "counted to 5" 5 (Bitvec.to_int (Simulator.output sim ~inputs:idle "count"));
  Simulator.step sim ~inputs:idle;
  check "idle holds" 5 (Bitvec.to_int (Simulator.output sim ~inputs:idle "count"));
  Simulator.step sim ~inputs:clr;
  check "clear" 0 (Bitvec.to_int (Simulator.output sim ~inputs:idle "count"));
  check "cycle count" 7 (Simulator.cycle sim)

let simulator_counter_wraps () =
  let sim = Simulator.create nl_counter in
  let en = [ ("enable", bv 1 1); ("clear", bv 1 0) ] in
  for _ = 1 to 16 do
    Simulator.step sim ~inputs:en
  done;
  check "wrapped" 0 (Bitvec.to_int (Simulator.output sim ~inputs:en "count"))

let simulator_at_max_flag () =
  let sim = Simulator.create nl_counter in
  let en = [ ("enable", bv 1 1); ("clear", bv 1 0) ] in
  for _ = 1 to 15 do
    Simulator.step sim ~inputs:en
  done;
  check "at_max" 1 (Bitvec.to_int (Simulator.output sim ~inputs:en "at_max"))

let simulator_load_state () =
  let sim = Simulator.create nl_counter in
  let en = [ ("enable", bv 1 1); ("clear", bv 1 0) ] in
  Simulator.load_state sim [| 21 |];
  Alcotest.(check (array int)) "truncated to 4 bits" [| 5 |]
    (Simulator.read_state sim);
  Simulator.step sim ~inputs:en;
  check "counts on from the loaded state" 6
    (Bitvec.to_int (Simulator.output sim ~inputs:en "count"));
  List.iter
    (fun values ->
      Alcotest.check_raises "one value per register"
        (Invalid_argument "Simulator.load_state: one value per register expected")
        (fun () -> Simulator.load_state sim values))
    [ [||]; [| 1; 2 |] ];
  Alcotest.(check (array int)) "a rejected load leaves the state" [| 6 |]
    (Simulator.read_state sim)

(* qcheck: the simulator's raw state load and clock edge, on which
   [Mc.Explicit] expands states, agree with an independent reference:
   one clock edge as an [Expr.eval] fold over association lists.  Each
   cycle starts from the reference's state, loaded into the simulator,
   so a state load after an edge (the spare state array swapped in) is
   exercised too. *)
let qcheck_state_load_matches_eval =
  QCheck.Test.make ~count:200 ~name:"state load and tick match Expr.eval"
    (QCheck.make
       QCheck.Gen.(
         let* ((nl, width, _) as case) = Netlist_gen.gen ~cycles:6 in
         let* start =
           list_repeat
             (List.length (Netlist.registers nl))
             (int_bound ((1 lsl width) - 1))
         in
         return (case, start)))
    (fun ((nl, width, stimulus), start) ->
      let registers = Netlist.registers nl in
      let lookup env n = List.assoc n env in
      let next state inputs =
        List.map
          (fun (r : Netlist.register) ->
            ( r.Netlist.name,
              Expr.eval ~input:(lookup inputs) ~reg:(lookup state)
                r.Netlist.next ))
          registers
      in
      let ints state = Array.of_list (List.map (fun (_, v) -> Bitvec.to_int v) state) in
      let sim = Simulator.create nl in
      let state0 =
        List.map2
          (fun (r : Netlist.register) v -> (r.Netlist.name, bv width v))
          registers start
      in
      snd
        (List.fold_left
           (fun (state, agree) (va, vb) ->
             Simulator.load_state sim (ints state);
             Simulator.set_inputs sim [| va; vb |];
             Simulator.tick sim;
             let state = next state (Netlist_gen.inputs ~width (va, vb)) in
             (state, agree && Simulator.read_state sim = ints state))
           (state0, true) stimulus))

(* --- TMR: triplication structure and fault-free transparency --- *)

let tmr_triplicate_structure () =
  let nl = Rtl_lib.counter ~width:4 in
  let tmr = Tmr.triplicate nl in
  check "three copies of every register"
    (3 * List.length (Netlist.registers nl))
    (List.length (Netlist.registers tmr));
  List.iter
    (fun (r : Netlist.register) ->
      for i = 0 to 2 do
        check_bool
          (Printf.sprintf "copy %d of %s present" i r.Netlist.name)
          true
          (List.exists
             (fun (c : Netlist.register) ->
               String.equal c.Netlist.name (Tmr.copy_reg i r.Netlist.name))
             (Netlist.registers tmr))
      done)
    (Netlist.registers nl);
  let outs = List.map fst (Netlist.outputs tmr) in
  List.iter
    (fun name ->
      check_bool (Printf.sprintf "output %s kept" name) true
        (List.mem name outs))
    (List.map fst (Netlist.outputs nl));
  List.iter
    (fun flag -> check_bool (flag ^ " added") true (List.mem flag outs))
    [ "tmr_disagree0"; "tmr_disagree1"; "tmr_disagree2"; "tmr_disagree" ]

let tmr_transparent_without_faults () =
  (* lock-step: with shared inputs and no injected upset, the voted
     outputs track the simplex netlist cycle for cycle and every
     disagreement flag stays low *)
  let nl = Rtl_lib.counter ~width:4 in
  let plain = Simulator.create nl and voted = Simulator.create (Tmr.triplicate nl) in
  let en = [ ("enable", bv 1 1); ("clear", bv 1 0) ] in
  for cyc = 1 to 20 do
    Simulator.step plain ~inputs:en;
    Simulator.step voted ~inputs:en;
    check
      (Printf.sprintf "voted count, cycle %d" cyc)
      (Bitvec.to_int (Simulator.output plain ~inputs:en "count"))
      (Bitvec.to_int (Simulator.output voted ~inputs:en "count"));
    check
      (Printf.sprintf "no disagreement, cycle %d" cyc)
      0
      (Bitvec.to_int (Simulator.output voted ~inputs:en "tmr_disagree"))
  done

(* --- ROOT datapath vs the behavioural model --- *)

let run_root sim n =
  Simulator.reset sim;
  Simulator.step sim ~inputs:[ ("start", bv 1 1); ("n", bv 8 n) ];
  let idle = [ ("start", bv 1 0); ("n", bv 8 0) ] in
  let steps = ref 0 in
  while
    Bitvec.to_int (Simulator.output sim ~inputs:idle "done") = 0 && !steps < 20
  do
    Simulator.step sim ~inputs:idle;
    incr steps
  done;
  Bitvec.to_int (Simulator.output sim ~inputs:idle "result")

let root_datapath_exhaustive () =
  let sim = Simulator.create (Rtl_lib.root_datapath ~width:8 ()) in
  for n = 0 to 255 do
    let want = I.Root.isqrt n in
    let got = run_root sim n in
    if got <> want then Alcotest.failf "root(%d) = %d, want %d" n got want
  done

let root_latency_fixed () =
  (* w/2 iterations plus the done cycle *)
  let sim = Simulator.create (Rtl_lib.root_datapath ~width:8 ()) in
  ignore (run_root sim 255);
  (* the start cycle plus one iteration per pair of operand bits *)
  check "cycles" (1 + 4) (Simulator.cycle sim)

(* --- DISTANCE datapath vs behavioural accumulation --- *)

let distance_datapath_matches () =
  let nl = Rtl_lib.distance_datapath () in
  let sim = Simulator.create nl in
  let stream = [ (10, 3); (255, 0); (7, 7); (0, 128) ] in
  Simulator.step sim
    ~inputs:[ ("start", bv 1 1); ("valid", bv 1 0); ("a", bv 8 0); ("b", bv 8 0) ];
  List.iter
    (fun (a, b) ->
      Simulator.step sim
        ~inputs:
          [ ("start", bv 1 0); ("valid", bv 1 1); ("a", bv 8 a); ("b", bv 8 b) ])
    stream;
  let idle =
    [ ("start", bv 1 0); ("valid", bv 1 0); ("a", bv 8 0); ("b", bv 8 0) ]
  in
  let want =
    List.fold_left (fun acc (a, b) -> acc + ((a - b) * (a - b))) 0 stream
    land 0xffff
  in
  check "acc" want (Bitvec.to_int (Simulator.output sim ~inputs:idle "acc"))

let distance_buggy_differs_on_second_vector () =
  (* the seeded bug (no clear on start) shows only on back-to-back use *)
  let run nl =
    let sim = Simulator.create nl in
    let fire a b =
      Simulator.step sim
        ~inputs:
          [ ("start", bv 1 0); ("valid", bv 1 1); ("a", bv 8 a); ("b", bv 8 b) ]
    in
    let start () =
      Simulator.step sim
        ~inputs:
          [ ("start", bv 1 1); ("valid", bv 1 0); ("a", bv 8 0); ("b", bv 8 0) ]
    in
    start (); fire 10 0;
    start (); fire 3 0;
    Bitvec.to_int
      (Simulator.output sim
         ~inputs:
           [ ("start", bv 1 0); ("valid", bv 1 0); ("a", bv 8 0); ("b", bv 8 0) ]
         "acc")
  in
  check "good clears" 9 (run (Rtl_lib.distance_datapath ()));
  check "buggy accumulates" 109 (run (Rtl_lib.distance_datapath_buggy ()))

(* --- Unroll: SAT encoding agrees with the simulator --- *)

let unroll_agrees_with_simulator () =
  let nl = Rtl_lib.fifo_ctrl ~addr_width:2 () in
  let stimulus =
    List.init 10 (fun i ->
        [ ("push", bv 1 (if i mod 3 <> 2 then 1 else 0));
          ("pop", bv 1 (if i mod 4 = 3 then 1 else 0)) ])
  in
  (* simulate *)
  let sim = Simulator.create nl in
  let counts =
    List.map
      (fun inputs ->
        let c = Bitvec.to_int (Simulator.output sim ~inputs "count") in
        Simulator.step sim ~inputs;
        c)
      stimulus
  in
  (* encode the same stimulus *)
  let solver = Symbad_sat.Solver.create 0 in
  let u = Unroll.create solver nl in
  Unroll.unroll_to u (List.length stimulus);
  List.iteri
    (fun i inputs ->
      List.iter
        (fun (n, v) ->
          let e =
            Expr.eq (Expr.input n)
              (Expr.const ~width:(Bitvec.width v) (Bitvec.to_int v))
          in
          Symbad_sat.Solver.add_clause solver [ Unroll.bool_lit u i e ])
        inputs)
    stimulus;
  (match Symbad_sat.Solver.solve solver with
  | Symbad_sat.Solver.Sat ->
      List.iteri
        (fun i want ->
          check (Printf.sprintf "frame %d" i) want
            (Unroll.reg_value solver u i "count"))
        counts
  | Symbad_sat.Solver.Unsat | Symbad_sat.Solver.Unknown ->
      Alcotest.fail "stimulus must be satisfiable")

let unroll_multiplication () =
  (* solve x * x == 49 over 8 bits: x in {7, 249, ...}; check the model *)
  let nl =
    Netlist.make ~name:"sq" ~inputs:[ ("x", 8) ] ~registers:[]
      ~outputs:[ ("y", Expr.mul (Expr.input "x") (Expr.input "x")) ]
  in
  let solver = Symbad_sat.Solver.create 0 in
  let u = Unroll.create solver nl in
  let goal =
    Expr.eq (Expr.mul (Expr.input "x") (Expr.input "x")) (Expr.const ~width:8 49)
  in
  Symbad_sat.Solver.add_clause solver [ Unroll.bool_lit u 0 goal ];
  match Symbad_sat.Solver.solve solver with
  | Symbad_sat.Solver.Sat ->
      let x = Unroll.input_value solver u 0 "x" in
      check "x*x mod 256" 49 (x * x mod 256)
  | Symbad_sat.Solver.Unsat | Symbad_sat.Solver.Unknown ->
      Alcotest.fail "expected solution"

(* Gates are hash-consed, so re-blasting an expression at the same frame
   returns the literals of the first blast and allocates nothing. *)
let unroll_reblast_is_shared () =
  let nl = Rtl_lib.fifo_ctrl ~addr_width:2 () in
  let solver = Symbad_sat.Solver.create 0 in
  let u = Unroll.create solver nl in
  Unroll.unroll_to u 3;
  let e =
    Expr.mux (Expr.input "push")
      (Expr.add (Expr.reg "count") (Expr.reg "count"))
      (Expr.mul (Expr.reg "count") (Expr.reg "count"))
  in
  let first = Unroll.expr_lits u 2 e in
  let nvars = Symbad_sat.Solver.nvars solver in
  let again = Unroll.expr_lits u 2 e in
  Alcotest.(check (array int)) "same literals" first again;
  check "no variable allocated" nvars (Symbad_sat.Solver.nvars solver)

(* qcheck: the bit-blaster against the simulator on random netlists.
   Every frame's inputs are pinned to a random stimulus with unit
   clauses, so the instance has exactly one model, and each register's
   model value must be what simulation reaches at that cycle.  A hash
   key that merged two different gate functions would show up here. *)
let qcheck_unroll_matches_simulator =
  QCheck.Test.make ~count:150
    ~name:"unrolled netlist matches the simulator frame by frame"
    (QCheck.make
       QCheck.Gen.(
         let* ((nl, _, _) as case) = Netlist_gen.gen ~cycles:8 in
         let* k = int_range 1 8 in
         let* formula = Netlist_gen.formula ~step:true nl in
         return (case, k, formula)))
    (fun ((nl, width, stimulus), k, formula) ->
      let module Solver = Symbad_sat.Solver in
      let stimulus = List.filteri (fun i _ -> i < k) stimulus in
      let solver = Solver.create 0 in
      let u = Unroll.create solver nl in
      Unroll.unroll_to u (k + 1);
      List.iteri
        (fun i ab ->
          List.iter
            (fun (n, v) ->
              Array.iteri
                (fun j l ->
                  Solver.add_clause solver [ (if Bitvec.bit v j then l else -l) ])
                (Unroll.expr_lits u i (Expr.input n)))
            (Netlist_gen.inputs ~width ab))
        stimulus;
      (* every output at every frame and the two-state formula across
         every edge, blasted before solving so the model fixes them *)
      let outputs =
        List.init k (fun i ->
            List.map (fun (_, e) -> Unroll.expr_lits u i e) (Netlist.outputs nl))
      in
      let across = List.init k (fun i -> Unroll.expr_lits_step u i formula) in
      match Solver.solve solver with
      | Solver.Sat ->
          let sim = Simulator.create nl in
          let step_value = Simulator.compile_step sim formula in
          List.for_all Fun.id
            (List.mapi
               (fun i ab ->
                 let inputs = Netlist_gen.inputs ~width ab in
                 let regs_agree =
                   List.for_all
                     (fun (r, v) ->
                       Unroll.reg_value solver u i r = Bitvec.to_int v)
                     (Simulator.state sim)
                 in
                 let outputs_agree =
                   List.for_all2
                     (fun (_, v) bits ->
                       Unroll.bits_value solver bits = Bitvec.to_int v)
                     (Simulator.outputs sim ~inputs)
                     (List.nth outputs i)
                 in
                 Simulator.step sim ~inputs;
                 regs_agree && outputs_agree
                 && step_value () = Unroll.bits_value solver (List.nth across i))
               stimulus)
      | Solver.Unsat | Solver.Unknown -> false)

(* qcheck: word-level eval of random expressions agrees with bit-blasted
   SAT evaluation under forced inputs. *)
let gen_expr_inputs =
  QCheck.Gen.(
    let* a = int_bound 255 in
    let* b = int_bound 255 in
    let* op = int_bound 6 in
    return (a, b, op))

let qcheck_blast_matches_eval =
  QCheck.Test.make ~name:"bit-blasting agrees with evaluation" ~count:150
    (QCheck.make gen_expr_inputs)
    (fun (a, b, op) ->
      let build x y =
        match op with
        | 0 -> Expr.add x y
        | 1 -> Expr.sub x y
        | 2 -> Expr.mul x y
        | 3 -> Expr.and_ x y
        | 4 -> Expr.or_ x y
        | 5 -> Expr.xor x y
        | _ -> Expr.mux (Expr.ult x y) (Expr.add x y) (Expr.sub x y)
      in
      let nl =
        Netlist.make ~name:"t" ~inputs:[ ("a", 8); ("b", 8) ] ~registers:[]
          ~outputs:[ ("o", build (Expr.input "a") (Expr.input "b")) ]
      in
      let want =
        Bitvec.to_int
          (Expr.eval
             ~input:(fun n -> if n = "a" then bv 8 a else bv 8 b)
             ~reg:(fun _ -> assert false)
             (build (Expr.input "a") (Expr.input "b")))
      in
      let solver = Symbad_sat.Solver.create 0 in
      let u = Unroll.create solver nl in
      List.iter
        (fun (n, v) ->
          Symbad_sat.Solver.add_clause solver
            [ Unroll.bool_lit u 0 (Expr.eq (Expr.input n) (Expr.const ~width:8 v)) ])
        [ ("a", a); ("b", b) ];
      match Symbad_sat.Solver.solve solver with
      | Symbad_sat.Solver.Sat ->
          let bits =
            Unroll.expr_lits u 0 (build (Expr.input "a") (Expr.input "b"))
          in
          Unroll.bits_value solver bits = want
      | Symbad_sat.Solver.Unsat | Symbad_sat.Solver.Unknown -> false)

(* --- ARGMIN datapath (WINNER) --- *)

let argmin_streams_correctly () =
  let nl = Rtl_lib.argmin_datapath () in
  let sim = Simulator.create nl in
  let run candidates =
    Simulator.step sim
      ~inputs:[ ("start", bv 1 1); ("valid", bv 1 0); ("d", bv 10 0) ];
    List.iter
      (fun d ->
        Simulator.step sim
          ~inputs:[ ("start", bv 1 0); ("valid", bv 1 1); ("d", bv 10 d) ])
      candidates;
    let idle = [ ("start", bv 1 0); ("valid", bv 1 0); ("d", bv 10 0) ] in
    ( Bitvec.to_int (Simulator.output sim ~inputs:idle "best_idx"),
      Bitvec.to_int (Simulator.output sim ~inputs:idle "best") )
  in
  let idx, best = run [ 900; 30; 500; 30; 77 ] in
  check "argmin index (first minimum wins)" 1 idx;
  check "minimum value" 30 best;
  (* back-to-back runs are independent (start clears) *)
  let idx2, best2 = run [ 5; 10 ] in
  check "second run index" 0 idx2;
  check "second run value" 5 best2

let argmin_properties_prove () =
  let nl = Rtl_lib.argmin_datapath () in
  let module P = Symbad_mc.Prop in
  let module En = Symbad_mc.Engine in
  let start = Expr.input "start" and valid = Expr.input "valid" in
  let d = Expr.input "d" in
  let best = Expr.reg "best" in
  let props =
    [
      P.make_step ~name:"start_resets_best"
        (P.implies start
           (Expr.eq (P.next best) (Expr.const ~width:10 1023)));
      P.make_step ~name:"best_monotone"
        (P.implies (Expr.not_ start) (Expr.ule (P.next best) best));
      P.make_step ~name:"better_candidate_wins"
        (P.implies
           (Expr.and_ (Expr.not_ start) (Expr.and_ valid (Expr.ult d best)))
           (Expr.eq (P.next best) d));
    ]
  in
  List.iter
    (fun p ->
      match (En.check nl p).En.verdict with
      | En.Proved _ -> ()
      | _ -> Alcotest.failf "%s not proved" (P.name p))
    props

(* --- RTL back-end co-simulation -------------------------------------
   The recognition back end in silicon: for each database entry the
   DISTANCE datapath accumulates the squared difference, the ROOT
   datapath extracts the integer square root, and the ARGMIN FSM tracks
   the winner.  The chained cycle-level simulation must agree with the
   behavioural recogniser entry for entry. *)

let rtl_backend_recognises () =
  let db =
    [| [| 3; 7; 1; 9 |]; [| 3; 8; 1; 9 |]; [| 15; 0; 15; 0 |]; [| 5; 5; 5; 5 |] |]
  in
  let probe = [| 4; 7; 2; 9 |] in
  (* behavioural reference *)
  let want_dists =
    Array.map (fun e -> I.Root.isqrt (I.Distance.squared probe e)) db
  in
  let want_idx =
    let best = ref 0 in
    Array.iteri (fun i d -> if d < want_dists.(!best) then best := i) want_dists;
    !best
  in
  (* RTL: distance at 12-bit accumulator, root at 12 bits, argmin at 10 *)
  let dist_sim = Simulator.create (Rtl_lib.distance_datapath ~acc_width:12 ()) in
  let root_sim = Simulator.create (Rtl_lib.root_datapath ~width:12 ()) in
  let argmin_sim = Simulator.create (Rtl_lib.argmin_datapath ()) in
  Simulator.step argmin_sim
    ~inputs:[ ("start", bv 1 1); ("valid", bv 1 0); ("d", bv 10 0) ];
  Array.iteri
    (fun i entry ->
      (* stream one entry through DISTANCE *)
      Simulator.step dist_sim
        ~inputs:
          [ ("start", bv 1 1); ("valid", bv 1 0); ("a", bv 8 0); ("b", bv 8 0) ];
      Array.iteri
        (fun j a ->
          Simulator.step dist_sim
            ~inputs:
              [ ("start", bv 1 0); ("valid", bv 1 1); ("a", bv 8 a);
                ("b", bv 8 entry.(j)) ])
        probe;
      let idle_d =
        [ ("start", bv 1 0); ("valid", bv 1 0); ("a", bv 8 0); ("b", bv 8 0) ]
      in
      let d2 = Bitvec.to_int (Simulator.output dist_sim ~inputs:idle_d "acc") in
      (* square root in the ROOT datapath *)
      Simulator.reset root_sim;
      Simulator.step root_sim ~inputs:[ ("start", bv 1 1); ("n", bv 12 d2) ];
      let idle_r = [ ("start", bv 1 0); ("n", bv 12 0) ] in
      let guard = ref 0 in
      while
        Bitvec.to_int (Simulator.output root_sim ~inputs:idle_r "done") = 0
        && !guard < 20
      do
        Simulator.step root_sim ~inputs:idle_r;
        incr guard
      done;
      let d = Bitvec.to_int (Simulator.output root_sim ~inputs:idle_r "result") in
      check (Printf.sprintf "entry %d distance" i) want_dists.(i) d;
      (* feed the winner FSM *)
      Simulator.step argmin_sim
        ~inputs:[ ("start", bv 1 0); ("valid", bv 1 1); ("d", bv 10 d) ])
    db;
  let idle_w = [ ("start", bv 1 0); ("valid", bv 1 0); ("d", bv 10 0) ] in
  check "RTL winner = behavioural winner" want_idx
    (Bitvec.to_int (Simulator.output argmin_sim ~inputs:idle_w "best_idx"))

(* --- VCD --- *)

let vcd_structure () =
  let nl = Rtl_lib.counter ~width:4 in
  let stim =
    List.init 3 (fun _ -> [ ("enable", bv 1 1); ("clear", bv 1 0) ])
  in
  let text = Vcd.of_simulation nl stim in
  let contains needle =
    let nl_ = String.length needle and tl = String.length text in
    let rec go i = i + nl_ <= tl && (String.sub text i nl_ = needle || go (i + 1)) in
    go 0
  in
  check_bool "timescale" true (contains "$timescale 10ns $end");
  check_bool "var enable" true (contains "enable $end");
  check_bool "var count" true (contains "$var wire 4");
  check_bool "module scope" true (contains "$scope module counter4");
  check_bool "initial count" true (contains "b0000");
  check_bool "count change" true (contains "b0001");
  check_bool "time marks" true (contains "#20")

let vcd_change_only_dumps () =
  (* constant inputs appear once, not per cycle *)
  let nl = Rtl_lib.counter ~width:4 in
  let stim =
    List.init 4 (fun _ -> [ ("enable", bv 1 0); ("clear", bv 1 0) ])
  in
  let text = Vcd.of_simulation nl stim in
  let occurrences needle =
    let nl_ = String.length needle and tl = String.length text in
    let rec go i acc =
      if i + nl_ > tl then acc
      else go (i + 1) (if String.sub text i nl_ = needle then acc + 1 else acc)
    in
    go 0 0
  in
  (* the count register never changes: only the initial b0000 dump *)
  check "count dumped once" 1 (occurrences "b0000")

let suite =
  [
    Alcotest.test_case "bitvec wraparound" `Quick bitvec_wraparound;
    Alcotest.test_case "bitvec bit ops" `Quick bitvec_bit_ops;
    Alcotest.test_case "bitvec slice/concat" `Quick bitvec_slice_concat;
    Alcotest.test_case "bitvec input validation" `Quick bitvec_rejects;
    Alcotest.test_case "expr width checking" `Quick expr_widths;
    Alcotest.test_case "expr evaluation" `Quick expr_eval;
    Alcotest.test_case "netlist validation" `Quick netlist_validation;
    Alcotest.test_case "netlist area model" `Quick netlist_area_positive;
    Alcotest.test_case "simulator: counter" `Quick simulator_counter;
    Alcotest.test_case "simulator: counter wraps" `Quick simulator_counter_wraps;
    Alcotest.test_case "simulator: at_max flag" `Quick simulator_at_max_flag;
    Alcotest.test_case "simulator: state load" `Quick simulator_load_state;
    QCheck_alcotest.to_alcotest qcheck_state_load_matches_eval;
    Alcotest.test_case "tmr triplicate structure" `Quick
      tmr_triplicate_structure;
    Alcotest.test_case "tmr transparent without faults" `Quick
      tmr_transparent_without_faults;
    Alcotest.test_case "ROOT datapath exhaustive (8-bit)" `Quick
      root_datapath_exhaustive;
    Alcotest.test_case "ROOT latency fixed" `Quick root_latency_fixed;
    Alcotest.test_case "DISTANCE datapath matches" `Quick
      distance_datapath_matches;
    Alcotest.test_case "DISTANCE seeded bug needs 2nd vector" `Quick
      distance_buggy_differs_on_second_vector;
    Alcotest.test_case "unroll agrees with simulator" `Quick
      unroll_agrees_with_simulator;
    Alcotest.test_case "unroll multiplication" `Quick unroll_multiplication;
    Alcotest.test_case "unroll re-blast is shared" `Quick
      unroll_reblast_is_shared;
    QCheck_alcotest.to_alcotest qcheck_unroll_matches_simulator;
    Alcotest.test_case "RTL back-end recognises (co-simulation)" `Quick
      rtl_backend_recognises;
    Alcotest.test_case "argmin streams correctly" `Quick
      argmin_streams_correctly;
    Alcotest.test_case "argmin properties prove" `Quick argmin_properties_prove;
    Alcotest.test_case "vcd structure" `Quick vcd_structure;
    Alcotest.test_case "vcd change-only dumps" `Quick vcd_change_only_dumps;
    QCheck_alcotest.to_alcotest qcheck_blast_matches_eval;
  ]
