(* Tests for fault injection, miter construction and the property
   coverage checker. *)

open Symbad_hdl
open Symbad_pcc
module E = Expr
module Prop = Symbad_mc.Prop

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fifo = Rtl_lib.fifo_ctrl ~addr_width:2 ()

(* --- Fault enumeration & application --- *)

let fault_enumeration () =
  let faults = Fault.enumerate fifo in
  (* 3 count bits x 2 polarities + 2 muxes x ... the fifo has no muxes *)
  check "reg faults only" 6 (List.length faults);
  let capped = Fault.enumerate ~max_reg_bits:1 fifo in
  check "capped" 2 (List.length capped)

let fault_apply_stuck_at () =
  let f = Fault.Reg_stuck { reg = "count"; bit = 0; value = true } in
  let mutant = Fault.apply fifo f in
  let sim = Simulator.create mutant in
  let idle = [ ("push", Bitvec.zero ~width:1); ("pop", Bitvec.zero ~width:1) ] in
  (* init forced: count starts with bit 0 set *)
  check "init forced" 1 (Bitvec.to_int (Simulator.output sim ~inputs:idle "count"));
  Simulator.step sim ~inputs:idle;
  check "stays forced" 1 (Bitvec.to_int (Simulator.output sim ~inputs:idle "count"))

let fault_apply_unknown_reg () =
  check_bool "raises" true
    (try
       ignore (Fault.apply fifo (Fault.Reg_stuck { reg = "nope"; bit = 0; value = true }));
       false
     with Invalid_argument _ -> true)

let fault_cond_stuck () =
  let counter = Rtl_lib.counter ~width:4 in
  (* counter has 2 muxes (clear, enable) in its next function *)
  check "mux count" 2 (Fault.netlist_muxes counter);
  let mutant = Fault.apply counter (Fault.Cond_stuck { index = 1; value = true }) in
  (* enable stuck true: counts without enable *)
  let sim = Simulator.create mutant in
  let idle = [ ("enable", Bitvec.zero ~width:1); ("clear", Bitvec.zero ~width:1) ] in
  Simulator.step sim ~inputs:idle;
  Simulator.step sim ~inputs:idle;
  check "counts while disabled" 2
    (Bitvec.to_int (Simulator.output sim ~inputs:idle "count"))

(* Every report's [condN] fault names rest on the mux numbering:
   pre-order, a mux's selector before its else arm before its then arm,
   and a binop's right operand before its left. *)
let fault_cond_numbering () =
  let sel = [ "s0"; "s1"; "s2"; "s3"; "s4" ] in
  let nl =
    Netlist.make ~name:"muxes"
      ~inputs:(List.map (fun s -> (s, 1)) sel
               @ List.map (fun n -> (n, 4)) [ "a"; "b"; "c"; "d" ])
      ~registers:[]
      ~outputs:
        [
          ( "o",
            E.mux (E.input "s0")
              (E.mux (E.input "s1") (E.input "a") (E.input "b"))
              (E.mux (E.input "s2") (E.input "c") (E.input "d")) );
          ( "p",
            E.add
              (E.mux (E.input "s3") (E.input "a") (E.input "b"))
              (E.mux (E.input "s4") (E.input "c") (E.input "d")) );
        ]
  in
  let stuck index =
    let mutant = Fault.apply nl (Fault.Cond_stuck { index; value = true }) in
    let read =
      List.fold_left
        (fun acc (_, e) ->
          E.fold_names
            (fun acc -> function `Input n -> n :: acc | `Reg _ -> acc)
            acc e)
        [] (Netlist.outputs mutant)
    in
    List.filter (fun s -> not (List.mem s read)) sel
  in
  Alcotest.(check (list (list string)))
    "selector stuck by cond0..cond4"
    [ [ "s0" ]; [ "s2" ]; [ "s1" ]; [ "s4" ]; [ "s3" ] ]
    (List.init (Fault.netlist_muxes nl) stuck)

(* --- Miter --- *)

let miter_identical_designs_equal () =
  match Miter.detectable ~depth:6 fifo (Rtl_lib.fifo_ctrl ~addr_width:2 ()) with
  | `Undetectable_within _ -> ()
  | _ -> Alcotest.fail "identical designs cannot differ"

let miter_detects_seeded_bug () =
  match Miter.detectable ~depth:8 fifo (Rtl_lib.fifo_ctrl_buggy ~addr_width:2 ()) with
  | `Detectable tr ->
      (* the off-by-one needs filling the fifo: at least depth+1 cycles *)
      check_bool "trace depth" true (List.length tr >= 4)
  | _ -> Alcotest.fail "seeded bug must be detectable"

let miter_interface_mismatch () =
  check_bool "raises" true
    (try
       ignore (Miter.build fifo (Rtl_lib.counter ~width:4));
       false
     with Invalid_argument _ -> true)

(* --- PCC --- *)

let weak_props = [
  Prop.make ~name:"not_full_and_empty"
    (E.not_ (E.and_ (Prop.output fifo "full") (Prop.output fifo "empty")));
]

let strong_props =
  let cw = 3 in
  let push_ok = E.and_ (E.input "push") (E.not_ (Prop.output fifo "full")) in
  let pop_ok = E.and_ (E.input "pop") (E.not_ (Prop.output fifo "empty")) in
  let delta = E.sub (Prop.next (E.reg "count")) (E.reg "count") in
  weak_props
  @ [
      Prop.make ~name:"count_le_depth"
        (E.ule (E.reg "count") (E.const ~width:cw 4));
      Prop.make ~name:"empty_iff_zero"
        (E.eq (Prop.output fifo "empty")
           (E.eq (E.reg "count") (E.const ~width:cw 0)));
      Prop.make_step ~name:"push_increments"
        (Prop.implies (E.and_ push_ok (E.not_ pop_ok))
           (E.eq delta (E.const ~width:cw 1)));
      Prop.make_step ~name:"pop_decrements"
        (Prop.implies (E.and_ pop_ok (E.not_ push_ok))
           (E.eq delta (E.const ~width:cw 7)));
      Prop.make_step ~name:"idle_holds"
        (Prop.implies (E.eq push_ok pop_ok) (E.eq delta (E.const ~width:cw 0)));
    ]

let pcc_weak_set_incomplete () =
  let r = Pcc.run ~depth:8 fifo weak_props in
  check "all faults detectable" 6 r.Pcc.detectable;
  check_bool "coverage below 50%" true (r.Pcc.coverage < 0.5);
  check_bool "uncovered faults reported" true (Pcc.uncovered_faults r <> [])

let pcc_strong_set_complete () =
  let r = Pcc.run ~depth:8 fifo strong_props in
  check "full coverage" r.Pcc.detectable r.Pcc.covered;
  Alcotest.(check (float 0.001)) "100%" 1.0 r.Pcc.coverage;
  check "nothing uncovered" 0 (List.length (Pcc.uncovered_faults r))

let pcc_coverage_monotone () =
  (* adding properties can only increase coverage *)
  let weak = (Pcc.run ~depth:8 fifo weak_props).Pcc.coverage in
  let strong = (Pcc.run ~depth:8 fifo strong_props).Pcc.coverage in
  check_bool "monotone" true (strong >= weak)

let pcc_undetectable_excluded () =
  (* a register bit that can never change is undetectable at the outputs *)
  let dead =
    Netlist.make ~name:"dead"
      ~inputs:[ ("x", 1) ]
      ~registers:
        [
          { Netlist.name = "live"; width = 1; init = Bitvec.zero ~width:1;
            next = E.input "x" };
          { Netlist.name = "dead"; width = 1; init = Bitvec.zero ~width:1;
            next = E.reg "dead" };
        ]
      ~outputs:[ ("o", E.reg "live") ]
  in
  let r = Pcc.run ~depth:6 dead [ Prop.make ~name:"t" (E.const ~width:1 1) ] in
  let undetectable =
    List.length
      (List.filter
         (fun fr -> fr.Pcc.status = Pcc.Undetectable)
         r.Pcc.faults)
  in
  (* dead/sa0 matches the reset value AND the register never reaches the
     outputs: 3 of the 4 faults of "dead" + "live" faults are detectable *)
  check_bool "some undetectable" true (undetectable >= 2);
  check "live faults detectable" 2
    (List.length
       (List.filter
          (fun fr ->
            match (fr.Pcc.fault, fr.Pcc.status) with
            | Fault.Reg_stuck { reg = "live"; _ }, (Pcc.Covered _ | Pcc.Uncovered) ->
                true
            | _ -> false)
          r.Pcc.faults))

(* --- PCC under the governor --- *)

module Gov = Symbad_gov.Gov
module Budget = Symbad_gov.Budget

let conflicts n = Gov.create (Budget.make ~conflicts:n ())
let statuses ?gov props =
  List.map (fun fr -> fr.Pcc.status) (Pcc.run ?gov ~depth:8 fifo props).Pcc.faults

let miter_exhausted_gov_resource_out () =
  match
    Miter.detectable ~depth:8 ~gov:(conflicts 0) fifo
      (Rtl_lib.fifo_ctrl_buggy ~addr_width:2 ())
  with
  | `Resource_out -> ()
  | _ -> Alcotest.fail "expected resource-out"

let pcc_zero_budget_all_unresolved () =
  let r = Pcc.run ~depth:8 ~gov:(conflicts 0) fifo strong_props in
  check "every fault listed" 6 (List.length r.Pcc.faults);
  check_bool "every fault unresolved" true
    (List.for_all (fun fr -> fr.Pcc.status = Pcc.Unresolved) r.Pcc.faults);
  check "nothing counted detectable" 0 r.Pcc.detectable;
  check "no gaps reported" 0 (List.length (Pcc.uncovered_faults r))

let pcc_ample_budget_matches_unlimited () =
  List.iter
    (fun props ->
      check_bool "same statuses" true
        (statuses ~gov:(conflicts 1_000_000) props = statuses props))
    [ weak_props; strong_props ]

let pcc_budget_never_invents_gaps () =
  (* the weak set has real gaps; under any allowance a fault is either
     classified as the unlimited run classifies it or left unresolved —
     never reported uncovered because a property check ran out *)
  let unlimited = statuses weak_props in
  List.iter
    (fun n ->
      List.iter2
        (fun s base ->
          check_bool
            (Printf.sprintf "allowance %d" n)
            true
            (s = base || s = Pcc.Unresolved))
        (statuses ~gov:(conflicts n) weak_props)
        unlimited)
    [ 0; 6; 12; 24; 48; 96; 192; 384; 768 ]

(* --- Simulation first --- *)

module Level4 = Symbad_core.Level4
module Session = Symbad_mc.Session
module Trace = Symbad_mc.Trace

(* PCC over the five level-4 modules at the flow's settings, shared by
   the tests below. *)
let flow_depth = 6

let flow_pcc =
  lazy
    (List.map
       (fun (m : Level4.rtl_module) ->
         ( m,
           Pcc.run ~depth:flow_depth ~max_reg_bits:4 m.Level4.netlist
             m.Level4.properties ))
       (Level4.modules ()))

(* Replay [witness]'s inputs on [mutant] from reset: its states must be
   the replay's, and [p] (evaluated by [Expr.eval], not by the
   simulator's closures) must fail within depth + 1 states — a step
   property across two consecutive frames of the trace. *)
let witness_breaks ~depth mutant p (witness : Trace.t) =
  let sim = Simulator.create mutant in
  let width n = List.assoc n (Netlist.inputs mutant) in
  let ints st = List.map (fun (n, v) -> (n, Bitvec.to_int v)) st in
  let anchors = List.length witness - if Prop.is_step p then 1 else 0 in
  let fails = ref false in
  List.iteri
    (fun i (frame : Trace.frame) ->
      let before = Simulator.state sim in
      check_bool "trace state replays" true (ints before = frame.Trace.regs);
      let inputs =
        List.map
          (fun (n, v) -> (n, Bitvec.make ~width:(width n) v))
          frame.Trace.inputs
      in
      Simulator.step sim ~inputs;
      let after = Simulator.state sim in
      let reg n =
        let len = String.length n in
        if n.[len - 1] = '\'' then
          List.assoc (String.sub n 0 (len - 1)) after
        else List.assoc n before
      in
      let holds =
        Expr.eval ~input:(fun n -> List.assoc n inputs) ~reg (Prop.formula p)
      in
      if i < anchors && i <= depth && Bitvec.to_int holds = 0 then
        fails := true)
    witness;
  !fails

let pcc_witnesses_replay () =
  let replayed = ref 0 in
  List.iter
    (fun ((m : Level4.rtl_module), r) ->
      List.iter
        (fun fr ->
          match fr.Pcc.status with
          | Pcc.Covered { property; witness } ->
              let p =
                List.find
                  (fun p -> Prop.name p = property)
                  m.Level4.properties
              in
              let mutant = Fault.apply m.Level4.netlist fr.Pcc.fault in
              check_bool
                (Printf.sprintf "%s %s breaks %s" m.Level4.module_name
                   (Fault.to_string fr.Pcc.fault) property)
                true
                (witness_breaks ~depth:flow_depth mutant p witness);
              incr replayed
          | Pcc.Uncovered | Pcc.Undetectable | Pcc.Unresolved -> ())
        r.Pcc.faults)
    (Lazy.force flow_pcc);
  check "every covered fault replayed" 128 !replayed

(* Faults a property does break but no output reveals: a property
   failure alone must never cover them. *)
let root_breaks_undetectable =
  List.init 4 (fun i -> Printf.sprintf "nsave[%d]/sa0" i)
  @ List.init 4 (fun i -> Printf.sprintf "nsave[%d]/sa1" i)
  @ [ "cond1/stuck-T"; "cond8/stuck-F"; "cond8/stuck-T" ]

let pcc_detectability_first () =
  let m, r =
    List.find
      (fun ((m : Level4.rtl_module), _) -> m.Level4.module_name = "ROOT")
      (Lazy.force flow_pcc)
  in
  check "ROOT detectable" 42 r.Pcc.detectable;
  check "ROOT covered" 41 r.Pcc.covered;
  let undetectable =
    List.filter_map
      (fun fr ->
        if fr.Pcc.status = Pcc.Undetectable then Some fr.Pcc.fault else None)
      r.Pcc.faults
  in
  check "ROOT undetectable" 14 (List.length undetectable);
  List.iter
    (fun name ->
      match
        List.find_opt (fun f -> Fault.to_string f = name) undetectable
      with
      | None -> Alcotest.failf "%s must stay undetectable" name
      | Some fault ->
          let mutant = Fault.apply m.Level4.netlist fault in
          check_bool (name ^ " breaks a property") true
            (List.exists
               (fun p ->
                 match
                   Session.bmc (Session.create mutant p) ~depth:flow_depth
                 with
                 | Session.Base_cex _ -> true
                 | Session.Base_holds | Session.Base_unknown -> false)
               m.Level4.properties))
    root_breaks_undetectable

(* The SAT-only reference [Pcc.check_fault] replaces: the miter, then
   BMC of each property in order.  Statuses only — the property inside
   [Covered] may differ. *)
let sat_only ~depth nl props fault =
  let mutant = Fault.apply nl fault in
  match Miter.detectable ~depth nl mutant with
  | `Undetectable_within _ -> `Undetectable
  | `Resource_out -> `Unresolved
  | `Detectable _ ->
      if
        List.exists
          (fun p ->
            match Session.bmc (Session.create mutant p) ~depth with
            | Session.Base_cex _ -> true
            | Session.Base_holds | Session.Base_unknown -> false)
          props
      then `Covered
      else `Uncovered

let kind = function
  | Pcc.Covered _ -> `Covered
  | Pcc.Uncovered -> `Uncovered
  | Pcc.Undetectable -> `Undetectable
  | Pcc.Unresolved -> `Unresolved

let qcheck_pcc_matches_sat_only =
  QCheck.Test.make ~count:30
    ~name:"simulation-first PCC matches the SAT-only reference"
    (QCheck.make
       QCheck.Gen.(
         let* nl, _, _ = Netlist_gen.gen ~cycles:0 in
         (* next-state properties on some registers hold on the
            original, so only a fault breaks them; faults elsewhere stay
            uncovered *)
         let* next =
           flatten_l
             (List.map
                (fun (r : Netlist.register) ->
                  map
                    (fun keep ->
                      if not keep then []
                      else
                        [
                          Prop.make_step ~name:(r.Netlist.name ^ "_next")
                            (E.eq
                               (E.reg (r.Netlist.name ^ "'"))
                               r.Netlist.next);
                        ])
                    bool)
                (Netlist.registers nl))
         in
         let* step = bool in
         let* random = opt (Netlist_gen.formula ~step nl) in
         let random =
           Option.map
             (fun f ->
               if step then Prop.make_step ~name:"random" f
               else Prop.make ~name:"random" f)
             random
         in
         return (nl, List.concat next @ Option.to_list random)))
    (fun (nl, props) ->
      let depth = 3 in
      List.for_all
        (fun fr -> kind fr.Pcc.status = sat_only ~depth nl props fr.Pcc.fault)
        (Pcc.run ~depth nl props).Pcc.faults)

let suite =
  [
    Alcotest.test_case "fault enumeration" `Quick fault_enumeration;
    Alcotest.test_case "stuck-at application" `Quick fault_apply_stuck_at;
    Alcotest.test_case "unknown register rejected" `Quick
      fault_apply_unknown_reg;
    Alcotest.test_case "condition stuck-at" `Quick fault_cond_stuck;
    Alcotest.test_case "condition numbering" `Quick fault_cond_numbering;
    Alcotest.test_case "miter: identical designs" `Quick
      miter_identical_designs_equal;
    Alcotest.test_case "miter: seeded bug detectable" `Quick
      miter_detects_seeded_bug;
    Alcotest.test_case "miter: interface mismatch" `Quick
      miter_interface_mismatch;
    Alcotest.test_case "pcc: weak property set incomplete" `Quick
      pcc_weak_set_incomplete;
    Alcotest.test_case "pcc: strong property set complete" `Quick
      pcc_strong_set_complete;
    Alcotest.test_case "pcc: coverage monotone in properties" `Quick
      pcc_coverage_monotone;
    Alcotest.test_case "pcc: undetectable faults excluded" `Quick
      pcc_undetectable_excluded;
    Alcotest.test_case "miter: exhausted governor" `Quick
      miter_exhausted_gov_resource_out;
    Alcotest.test_case "pcc: zero budget leaves faults unresolved" `Quick
      pcc_zero_budget_all_unresolved;
    Alcotest.test_case "pcc: ample budget matches unlimited" `Quick
      pcc_ample_budget_matches_unlimited;
    Alcotest.test_case "pcc: budget never invents gaps" `Quick
      pcc_budget_never_invents_gaps;
    Alcotest.test_case "pcc: covered witnesses replay" `Quick
      pcc_witnesses_replay;
    Alcotest.test_case "pcc: detectability first" `Quick
      pcc_detectability_first;
    QCheck_alcotest.to_alcotest qcheck_pcc_matches_sat_only;
  ]
