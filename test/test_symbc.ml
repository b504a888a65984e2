(* Tests for SymbC: parser, CFG, consistency checking. *)

open Symbad_symbc

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let info =
  Config_info.make
    ~fpga_functions:[ "distance"; "root" ]
    ~configurations:[ ("config1", [ "distance" ]); ("config2", [ "root" ]) ]

(* --- Config_info --- *)

let config_info_lookup () =
  check_bool "fpga fn" true (Config_info.is_fpga_function info "distance");
  check_bool "sw fn" false (Config_info.is_fpga_function info "camera");
  check_bool "provides" true (Config_info.provides info ~config:"config1" "distance");
  check_bool "not provides" false (Config_info.provides info ~config:"config1" "root");
  Alcotest.(check (list string)) "names" [ "config1"; "config2" ]
    (Config_info.configuration_names info)

let config_info_rejects_unknown_fn () =
  check_bool "raises" true
    (try
       ignore
         (Config_info.make ~fpga_functions:[ "a" ]
            ~configurations:[ ("c", [ "b" ]) ]);
       false
     with Invalid_argument _ -> true)

(* --- Parser --- *)

let parser_roundtrip () =
  let text = {|
    // setup
    camera();
    load(config1);
    if (*) { distance(); } else { camera(); }
    while (*) { load(config2); root(); }
  |} in
  let p = Parser.parse text in
  check "statements" 4 (List.length p);
  Alcotest.(check (list string)) "calls" [ "camera"; "distance"; "root" ]
    (Ast.called_functions p);
  Alcotest.(check (list string)) "configs" [ "config1"; "config2" ]
    (Ast.loaded_configs p)

let parser_if_without_else () =
  match Parser.parse "if (*) { f(); }" with
  | [ Ast.If ([ Ast.Call "f" ], []) ] -> ()
  | _ -> Alcotest.fail "bad parse"

let parser_errors () =
  let bad = [ "f("; "load();"; "if () { }"; "} f();"; "f() g();" ] in
  List.iter
    (fun text ->
      check_bool text true
        (try
           ignore (Parser.parse text);
           false
         with Parser.Parse_error _ -> true))
    bad

(* --- CFG --- *)

let cfg_linear () =
  let cfg = Cfg.build [ Ast.call "a"; Ast.call "b" ] in
  check "nodes" 3 cfg.Cfg.nnodes;
  check "edges" 2 (List.length cfg.Cfg.edges)

let cfg_if_shape () =
  let cfg = Cfg.build [ Ast.if_ [ Ast.call "t" ] [ Ast.call "e" ] ] in
  (* entry, join, then-entry, then-exit-is-call-result, else-entry, ... *)
  check "two successors at branch" 2 (List.length (Cfg.successors cfg cfg.Cfg.entry))

let cfg_while_shape () =
  let cfg = Cfg.build [ Ast.while_ [ Ast.call "body" ] ] in
  (* loop head: into body and out *)
  check "two successors at loop head" 2
    (List.length (Cfg.successors cfg cfg.Cfg.entry))

(* --- Check --- *)

let consistent_straightline () =
  let p = Parser.parse "load(config1); distance(); load(config2); root();" in
  match Check.check info p with
  | Check.Consistent c ->
      check "calls checked" 2 c.Check.calls_checked
  | Check.Inconsistent _ -> Alcotest.fail "expected consistent"

let inconsistent_no_load () =
  let p = Parser.parse "distance();" in
  match Check.check info p with
  | Check.Inconsistent cex ->
      Alcotest.(check string) "failing call" "distance" cex.Check.failing_call;
      check_bool "no config loaded" true (cex.Check.state_at_call = Check.Unloaded)
  | Check.Consistent _ -> Alcotest.fail "expected inconsistent"

let inconsistent_wrong_config () =
  let p = Parser.parse "load(config2); distance();" in
  match Check.check info p with
  | Check.Inconsistent cex ->
      check_bool "loaded config2" true
        (cex.Check.state_at_call = Check.Loaded "config2")
  | Check.Consistent _ -> Alcotest.fail "expected inconsistent"

let sw_calls_always_ok () =
  let p = Parser.parse "camera(); bayer(); erosion();" in
  match Check.check info p with
  | Check.Consistent _ -> ()
  | Check.Inconsistent _ -> Alcotest.fail "SW calls need no configuration"

let branch_join_loses_config () =
  (* only one branch loads the right config: the join is inconsistent *)
  let p =
    Parser.parse
      "load(config1); if (*) { load(config2); root(); } distance();"
  in
  match Check.check info p with
  | Check.Inconsistent cex ->
      Alcotest.(check string) "failing" "distance" cex.Check.failing_call
  | Check.Consistent _ -> Alcotest.fail "join must be inconsistent"

let branch_join_consistent_when_both_reload () =
  let p =
    Parser.parse
      "if (*) { load(config2); root(); load(config1); } else { load(config1); } distance();"
  in
  match Check.check info p with
  | Check.Consistent _ -> ()
  | Check.Inconsistent _ -> Alcotest.fail "both paths end in config1"

let loop_requires_reload_inside () =
  (* the loop body switches to config2; the next iteration's distance()
     sees config2 *)
  let p = Parser.parse "load(config1); while (*) { distance(); load(config2); root(); }" in
  (match Check.check info p with
  | Check.Inconsistent cex ->
      Alcotest.(check string) "failing" "distance" cex.Check.failing_call
  | Check.Consistent _ -> Alcotest.fail "loop carries config2 back");
  (* reloading at the top of the body fixes it *)
  let fixed =
    Parser.parse
      "load(config1); while (*) { load(config1); distance(); load(config2); root(); }"
  in
  match Check.check info fixed with
  | Check.Consistent _ -> ()
  | Check.Inconsistent _ -> Alcotest.fail "fixed program is consistent"

let counterexample_is_shortest () =
  let p = Parser.parse "camera(); camera(); distance();" in
  match Check.check info p with
  | Check.Inconsistent cex ->
      (* path: camera, camera, distance *)
      check "path length" 3 (List.length cex.Check.path)
  | Check.Consistent _ -> Alcotest.fail "expected inconsistent"

let unknown_config_rejected () =
  let p = Parser.parse "load(mystery); distance();" in
  check_bool "raises" true
    (try
       ignore (Check.check info p);
       false
     with Invalid_argument _ -> true)

(* --- Absint: the may-states fixpoint --- *)

(* The fixpoint over a program's CFG: per node, the FPGA states that
   may hold there. *)
let may_states p =
  let cfg = Cfg.build p in
  (cfg, Absint.may_states ~nnodes:cfg.Cfg.nnodes ~entry:cfg.Cfg.entry
          (Cfg.successors cfg))

(* Every call the fixpoint reaches, in edge order, with the states that
   may hold at it and those of them in which the call is unavailable. *)
let calls_reached p =
  let cfg, may = may_states p in
  List.filter_map
    (fun (e : Cfg.edge) ->
      match e.Cfg.action with
      | Cfg.Call f when not (Absint.State_set.is_empty may.(e.Cfg.src)) ->
          let states = may.(e.Cfg.src) in
          Some
            ( f,
              Absint.State_set.elements states,
              Absint.State_set.elements
                (Absint.State_set.filter
                   (fun s -> not (Check.call_ok info s f))
                   states) )
      | _ -> None)
    cfg.Cfg.edges

let offending p =
  List.filter_map
    (fun (f, _, bad) -> if bad = [] then None else Some (f, bad))
    (calls_reached p)

let absint_safe_program () =
  let p = Parser.parse "load(config1); distance(); load(config2); root();" in
  check "calls" 2 (List.length (calls_reached p));
  check "offending calls" 0 (List.length (offending p))

let absint_unsafe_program () =
  let p = Parser.parse "load(config2); distance();" in
  match offending p with
  | [ (f, bad) ] ->
      Alcotest.(check string) "call" "distance" f;
      check_bool "config2 offends" true (List.mem (Check.Loaded "config2") bad)
  | _ -> Alcotest.fail "expected one offending call"

let absint_join_precision () =
  (* after the branch, both configurations are possible: the invariant
     must contain both, and the following call must be flagged *)
  let p =
    Parser.parse
      "if (*) { load(config1); } else { load(config2); } distance();"
  in
  match calls_reached p with
  | [ ("distance", states, bad) ] ->
      check "both states reach the call" 2 (List.length states);
      check "only config2 offends" 1 (List.length bad)
  | _ -> Alcotest.fail "join must keep both states"

let absint_loop_fixpoint () =
  (* the loop body's final state flows back to its head *)
  let p =
    Parser.parse "load(config1); while (*) { distance(); load(config2); root(); }"
  in
  match offending p with
  | (f, bad) :: _ ->
      Alcotest.(check string) "loop-carried state" "distance" f;
      check_bool "config2 carried back" true
        (List.mem (Check.Loaded "config2") bad)
  | [] -> Alcotest.fail "fixpoint must carry config2 back"

(* qcheck: the product-automaton verdict agrees with exhaustive bounded
   path exploration on random small programs. *)
let gen_program =
  let open QCheck.Gen in
  let action =
    frequency
      [
        (3, return (Ast.call "distance"));
        (2, return (Ast.call "root"));
        (2, return (Ast.call "camera"));
        (3, return (Ast.reconfig "config1"));
        (2, return (Ast.reconfig "config2"));
      ]
  in
  let rec program depth n =
    if depth = 0 then list_size (1 -- n) action
    else
      list_size (1 -- n)
        (frequency
           [
             (6, action);
             ( 1,
               let* t = program (depth - 1) 2 in
               let* e = program (depth - 1) 2 in
               return (Ast.if_ t e) );
             ( 1,
               let* b = program (depth - 1) 2 in
               return (Ast.while_ b) );
           ])
  in
  program 2 4

(* Exhaustive path exploration with loop bodies taken 0, 1 or 2 times. *)
let rec paths_of stmts : Cfg.action list list =
  match stmts with
  | [] -> [ [] ]
  | s :: rest ->
      let heads =
        match s with
        | Ast.Call f -> [ [ Cfg.Call f ] ]
        | Ast.Reconfig c -> [ [ Cfg.Reconfig c ] ]
        | Ast.If (t, e) -> paths_of t @ paths_of e
        | Ast.While b ->
            let once = paths_of b in
            [ [] ]
            @ once
            @ List.concat_map (fun p1 -> List.map (fun p2 -> p1 @ p2) once) once
      in
      let tails = paths_of rest in
      List.concat_map (fun h -> List.map (fun t -> h @ t) tails) heads

let path_consistent path =
  let rec go state = function
    | [] -> true
    | Cfg.Nop :: rest -> go state rest
    | Cfg.Reconfig c :: rest -> go (Some c) rest
    | Cfg.Call f :: rest ->
        if not (Config_info.is_fpga_function info f) then go state rest
        else (
          match state with
          | Some c when Config_info.provides info ~config:c f -> go state rest
          | _ -> false)
  in
  go None path

let qcheck_check_vs_path_enumeration =
  QCheck.Test.make ~name:"symbc agrees with bounded path enumeration" ~count:200
    (QCheck.make gen_program) (fun program ->
      let symbc_ok =
        match Check.check info program with
        | Check.Consistent _ -> true
        | Check.Inconsistent _ -> false
      in
      let paths_ok = List.for_all path_consistent (paths_of program) in
      (* symbc covers unboundedly many iterations, so consistency implies
         bounded-path consistency; inconsistency must be witnessed by
         some bounded path for loop depth <= 2 over a 3-state lattice *)
      if symbc_ok then paths_ok else true)

(* The fixpoint agrees with the product check, the verdict engine: a
   call the may-states find unavailable exists exactly when the program
   is inconsistent, and on a consistent program the per-node state sets
   equal [Check]'s certificate node by node.  This pins the fixpoint the
   reconfiguration lints read against an independent reference. *)
let qcheck_absint_agrees_with_product =
  QCheck.Test.make ~name:"abstract interpretation agrees with product check"
    ~count:300 (QCheck.make gen_program)
    (fun program ->
      let cfg, may = may_states program in
      let reached =
        List.filter_map
          (fun node ->
            match Absint.State_set.elements may.(node) with
            | [] -> None
            | states -> Some (node, states))
          (List.init cfg.Cfg.nnodes Fun.id)
      in
      match Check.check info program with
      | Check.Consistent cert ->
          offending program = []
          && reached
             = List.map
                 (fun (node, states) -> (node, List.sort compare states))
                 cert.Check.invariants
      | Check.Inconsistent _ -> offending program <> [])

let suite =
  [
    Alcotest.test_case "config info lookup" `Quick config_info_lookup;
    Alcotest.test_case "config info rejects unknown fn" `Quick
      config_info_rejects_unknown_fn;
    Alcotest.test_case "parser roundtrip" `Quick parser_roundtrip;
    Alcotest.test_case "parser if without else" `Quick parser_if_without_else;
    Alcotest.test_case "parser errors" `Quick parser_errors;
    Alcotest.test_case "cfg linear" `Quick cfg_linear;
    Alcotest.test_case "cfg if shape" `Quick cfg_if_shape;
    Alcotest.test_case "cfg while shape" `Quick cfg_while_shape;
    Alcotest.test_case "consistent straight line" `Quick consistent_straightline;
    Alcotest.test_case "inconsistent: no load" `Quick inconsistent_no_load;
    Alcotest.test_case "inconsistent: wrong config" `Quick
      inconsistent_wrong_config;
    Alcotest.test_case "SW calls always ok" `Quick sw_calls_always_ok;
    Alcotest.test_case "branch join loses config" `Quick branch_join_loses_config;
    Alcotest.test_case "branch join consistent when both reload" `Quick
      branch_join_consistent_when_both_reload;
    Alcotest.test_case "loop requires reload inside" `Quick
      loop_requires_reload_inside;
    Alcotest.test_case "counterexample is shortest" `Quick
      counterexample_is_shortest;
    Alcotest.test_case "unknown config rejected" `Quick unknown_config_rejected;
    Alcotest.test_case "absint: safe program" `Quick absint_safe_program;
    Alcotest.test_case "absint: unsafe program" `Quick absint_unsafe_program;
    Alcotest.test_case "absint: join precision" `Quick absint_join_precision;
    Alcotest.test_case "absint: loop fixpoint" `Quick absint_loop_fixpoint;
    QCheck_alcotest.to_alcotest qcheck_absint_agrees_with_product;
    QCheck_alcotest.to_alcotest qcheck_check_vs_path_enumeration;
  ]
