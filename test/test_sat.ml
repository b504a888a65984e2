(* Tests for the CDCL SAT solver and the Tseitin encodings. *)

open Symbad_sat

let check_bool = Alcotest.(check bool)

let solve_clauses nvars clauses =
  let s = Solver.create nvars in
  List.iter (Solver.add_clause s) clauses;
  (s, Solver.solve s)

let is_sat = function Solver.Sat -> true | Solver.Unsat | Solver.Unknown -> false
let is_unsat = function Solver.Unsat -> true | Solver.Sat | Solver.Unknown -> false

let trivial_sat () =
  let _, r = solve_clauses 2 [ [ 1; 2 ]; [ -1 ] ] in
  check_bool "sat" true (is_sat r)

let trivial_unsat () =
  let _, r = solve_clauses 1 [ [ 1 ]; [ -1 ] ] in
  check_bool "unsat" true (is_unsat r)

let empty_clause_unsat () =
  let _, r = solve_clauses 1 [ [] ] in
  check_bool "unsat" true (is_unsat r)

let no_clauses_sat () =
  let _, r = solve_clauses 3 [] in
  check_bool "sat" true (is_sat r)

let model_satisfies () =
  let clauses = [ [ 1; -2; 3 ]; [ -1; 2 ]; [ -3 ]; [ 2; 3 ] ] in
  let s, r = solve_clauses 3 clauses in
  check_bool "sat" true (is_sat r);
  let value l =
    if l > 0 then Solver.model_value s l else not (Solver.model_value s (-l))
  in
  check_bool "model checks out" true
    (List.for_all (List.exists value) clauses)

let pigeonhole_solver n m =
  (* n pigeons into m holes *)
  let var p h = ((p - 1) * m) + h in
  let s = Solver.create (n * m) in
  for p = 1 to n do
    Solver.add_clause s (List.init m (fun h -> var p (h + 1)))
  done;
  for h = 1 to m do
    for p1 = 1 to n do
      for p2 = p1 + 1 to n do
        Solver.add_clause s [ -(var p1 h); -(var p2 h) ]
      done
    done
  done;
  s

let pigeonhole n m = Solver.solve (pigeonhole_solver n m)

let pigeonhole_unsat () = check_bool "php(6,5)" true (is_unsat (pigeonhole 6 5))
let pigeonhole_sat () = check_bool "php(5,5)" true (is_sat (pigeonhole 5 5))

let assumptions_work () =
  let s = Solver.create 2 in
  Solver.add_clause s [ 1; 2 ];
  check_bool "sat under -1" true (is_sat (Solver.solve ~assumptions:[ -1 ] s));
  check_bool "unsat under -1,-2" true
    (is_unsat (Solver.solve ~assumptions:[ -1; -2 ] s));
  (* solver is reusable after an assumption failure *)
  check_bool "still sat" true (is_sat (Solver.solve s))

let assumption_literals_validated () =
  (* rejected as add_clause rejects them, before any search state moves;
     variables come from new_var, so the arrays have spare capacity *)
  let s = Solver.create 0 in
  for _ = 1 to 5 do
    ignore (Solver.new_var s)
  done;
  Solver.add_clause s [ 1; 2 ];
  List.iter
    (fun l ->
      Alcotest.check_raises
        (Printf.sprintf "assumption %d" l)
        (Invalid_argument (Printf.sprintf "Solver.solve: bad literal %d" l))
        (fun () -> ignore (Solver.solve ~assumptions:[ 1; l ] s)))
    [ 6; 0; 9; -6 ];
  check_bool "valid assumptions still solve" true
    (is_sat (Solver.solve ~assumptions:[ -1; 5 ] s))

let repeated_assumptions () =
  (* each assumption opens a decision level, even one already true *)
  let s = Solver.create 1 in
  check_bool "sat" true
    (is_sat (Solver.solve ~assumptions:[ 1; 1; 1; 1; 1 ] s));
  check_bool "x1" true (Solver.model_value s 1);
  check_bool "unsat" true
    (is_unsat (Solver.solve ~assumptions:[ 1; 1; 1; -1 ] s))

let conflict_budget () =
  (* a hard instance with a tiny budget returns Unknown *)
  let var p h = ((p - 1) * 8 ) + h in
  let s = Solver.create 72 in
  for p = 1 to 9 do
    Solver.add_clause s (List.init 8 (fun h -> var p (h + 1)))
  done;
  for h = 1 to 8 do
    for p1 = 1 to 9 do
      for p2 = p1 + 1 to 9 do
        Solver.add_clause s [ -(var p1 h); -(var p2 h) ]
      done
    done
  done;
  let module Gov = Symbad_gov.Gov in
  let gov = Gov.create (Symbad_gov.Budget.make ~conflicts:5 ()) in
  (match Solver.solve ~gov s with
  | Solver.Unknown -> ()
  | Solver.Sat | Solver.Unsat -> Alcotest.fail "expected resource-out");
  Alcotest.(check int) "allowance spent exactly" 5 (Gov.spent_conflicts gov);
  check_bool "governor exhausted" true (Gov.out_of_budget gov)

(* --- the governor as the only SAT budget --- *)

module Gov = Symbad_gov.Gov
module Budget = Symbad_gov.Budget

let exhausted_governor_skips_search () =
  let s = pigeonhole_solver 6 5 in
  let before = Solver.stats s in
  let gov = Gov.create (Budget.make ~conflicts:0 ()) in
  check_bool "unknown" true (Solver.solve ~gov s = Solver.Unknown);
  let after = Solver.stats s in
  Alcotest.(check int) "no conflicts" before.Solver.conflicts
    after.Solver.conflicts;
  Alcotest.(check int) "no decisions" before.Solver.decisions
    after.Solver.decisions;
  Alcotest.(check int) "nothing charged" 0 (Gov.spent_conflicts gov)

let ample_governor_does_ungoverned_work () =
  (* a governor that never binds changes neither the answer nor the
     search: same conflicts, decisions and propagations, all charged *)
  let free = pigeonhole_solver 6 5 in
  check_bool "ungoverned unsat" true (is_unsat (Solver.solve free));
  let governed = pigeonhole_solver 6 5 in
  let gov = Gov.create (Budget.make ~conflicts:1_000_000 ()) in
  check_bool "governed unsat" true (is_unsat (Solver.solve ~gov governed));
  let f = Solver.stats free and g = Solver.stats governed in
  Alcotest.(check int) "same conflicts" f.Solver.conflicts g.Solver.conflicts;
  Alcotest.(check int) "same decisions" f.Solver.decisions g.Solver.decisions;
  Alcotest.(check int) "same propagations" f.Solver.propagations
    g.Solver.propagations;
  Alcotest.(check int) "every conflict charged" g.Solver.conflicts
    (Gov.spent_conflicts gov)

let governor_allowance_spans_calls () =
  (* one allowance caps the sum of the calls it governs: what the first
     solve spends the second cannot *)
  let gov = Gov.create (Budget.make ~conflicts:7 ()) in
  let first = pigeonhole_solver 7 6 in
  check_bool "first runs out" true (Solver.solve ~gov first = Solver.Unknown);
  let second = pigeonhole_solver 7 6 in
  check_bool "second starts exhausted" true
    (Solver.solve ~gov second = Solver.Unknown);
  Alcotest.(check int) "second searched nothing" 0
    (Solver.stats second).Solver.conflicts;
  Alcotest.(check int) "total within the allowance" 7 (Gov.spent_conflicts gov)

let governor_child_caps_call () =
  (* a split child caps the call at its share and charges the parent *)
  let parent = Gov.create (Budget.make ~conflicts:20 ()) in
  let child = List.hd (Gov.split parent 4) in
  let s = pigeonhole_solver 7 6 in
  check_bool "child runs out" true (Solver.solve ~gov:child s = Solver.Unknown);
  Alcotest.(check int) "share spent" 5 (Solver.stats s).Solver.conflicts;
  Alcotest.(check int) "parent charged" 5 (Gov.spent_conflicts parent);
  check_bool "parent still has budget" false (Gov.out_of_budget parent)

(* --- the search trajectory ---

   The exact effort of fixed instances: a change to the decision order,
   the watcher order or the literal order inside a clause moves these
   counts, and with them the budgeted verdict mixes in
   test/golden/gov.json and the verdicts in the verification cache. *)

let effort s =
  let st = Solver.stats s in
  Solver.
    [ st.conflicts; st.decisions; st.propagations; st.learned; st.restarts ]

let check_effort name want s = Alcotest.(check (list int)) name want (effort s)

let pigeonhole_trajectory () =
  let php76 = pigeonhole_solver 7 6 in
  check_bool "php(7,6) unsat" true (is_unsat (Solver.solve php76));
  check_effort "php(7,6)" [ 819; 1009; 10963; 818; 6 ] php76;
  (* past the 1e100 activity rescale (near conflict 4490), so the
     rescale is pinned too *)
  let php87 = pigeonhole_solver 8 7 in
  check_bool "php(8,7) unsat" true (is_unsat (Solver.solve php87));
  check_effort "php(8,7)" [ 6160; 7426; 86239; 6159; 29 ] php87

let incremental_trajectory () =
  (* activation-literal queries over one solver, clauses added between
     solves: answers, models and cumulative effort after each call *)
  let n = 6 in
  let s = pigeonhole_solver n n in
  let var p h = ((p - 1) * n) + h in
  let query clauses =
    let a = Solver.new_var s in
    List.iter (fun c -> Solver.add_clause s (-a :: c)) clauses;
    a
  in
  let model () =
    List.filter (Solver.model_value s) (List.init (n * n) (fun i -> i + 1))
  in
  let step name ?(assumptions = []) want_sat want_model want_effort =
    check_bool (name ^ ": answer") want_sat
      (is_sat (Solver.solve ~assumptions s));
    if want_sat then
      Alcotest.(check (list int)) (name ^ ": model") want_model (model ());
    check_effort (name ^ ": effort") want_effort s
  in
  let closed h = query (List.init n (fun p -> [ -var (p + 1) h ])) in
  let hole6 = closed 6 in
  step "hole 6 closed" ~assumptions:[ hole6 ] false []
    [ 155; 208; 1782; 154; 1 ];
  let hole5 = closed 5 in
  step "hole 5 closed" ~assumptions:[ hole5 ] false []
    [ 226; 284; 2645; 224; 1 ];
  Solver.add_clause s [ -hole6 ];
  let placed = query [ [ var 1 6 ]; [ var 2 5 ] ] in
  step "two pigeons placed" ~assumptions:[ placed ] true
    [ 6; 11; 16; 20; 27; 31 ] [ 226; 292; 2684; 224; 1 ];
  Solver.add_clause s [ -var 3 1 ];
  let first_in_6 = query [ [ var 1 6 ] ] in
  step "hole 5 closed, pigeon 1 in hole 6" ~assumptions:[ hole5; first_in_6 ]
    false [] [ 227; 292; 2719; 224; 1 ];
  step "no assumptions" true [ 6; 11; 14; 22; 27; 31 ]
    [ 230; 311; 2790; 227; 1 ]

let new_var_growth () =
  let s = Solver.create 0 in
  let vars = List.init 100 (fun _ -> Solver.new_var s) in
  Alcotest.(check int) "nvars" 100 (Solver.nvars s);
  List.iter (fun v -> Solver.add_clause s [ v ]) vars;
  check_bool "sat" true (is_sat (Solver.solve s));
  check_bool "all true" true (List.for_all (Solver.model_value s) vars)

let unit_propagation_chain () =
  (* x1 -> x2 -> ... -> x20, assert x1: everything propagates *)
  let n = 20 in
  let s = Solver.create n in
  for i = 1 to n - 1 do
    Solver.add_clause s [ -i; i + 1 ]
  done;
  Solver.add_clause s [ 1 ];
  check_bool "sat" true (is_sat (Solver.solve s));
  for i = 1 to n do
    check_bool (Printf.sprintf "x%d true" i) true (Solver.model_value s i)
  done;
  let st = Solver.stats s in
  Alcotest.(check int) "no decisions needed" 0 st.Solver.decisions

let solver_reusable_across_solves () =
  let s = Solver.create 2 in
  Solver.add_clause s [ 1; 2 ];
  check_bool "first" true (is_sat (Solver.solve s));
  Solver.add_clause s [ -1 ];
  check_bool "second" true (is_sat (Solver.solve s));
  check_bool "x2 forced" true (Solver.model_value s 2);
  Solver.add_clause s [ -2 ];
  check_bool "third" true (is_unsat (Solver.solve s))

(* --- Tseitin --- *)

let tseitin_truth_tables () =
  (* check each gate against its truth table by forcing inputs *)
  let eval gate a_val b_val =
    let s = Solver.create 0 in
    let ctx = Tseitin.create s in
    let a = Tseitin.fresh ctx and b = Tseitin.fresh ctx in
    let o = gate ctx a b in
    Tseitin.assert_lit ctx (if a_val then a else -a);
    Tseitin.assert_lit ctx (if b_val then b else -b);
    match Solver.solve s with
    | Solver.Sat ->
        if o > 0 then Solver.model_value s o else not (Solver.model_value s (-o))
    | Solver.Unsat | Solver.Unknown -> Alcotest.fail "inputs unsat"
  in
  List.iter
    (fun (a, b) ->
      check_bool "and" (a && b) (eval Tseitin.and_gate a b);
      check_bool "or" (a || b) (eval Tseitin.or_gate a b);
      check_bool "xor" (a <> b) (eval Tseitin.xor_gate a b);
      check_bool "iff" (a = b) (eval Tseitin.iff_gate a b))
    [ (false, false); (false, true); (true, false); (true, true) ]

let tseitin_mux () =
  List.iter
    (fun (sel, a, b) ->
      let s = Solver.create 0 in
      let ctx = Tseitin.create s in
      let ls = Tseitin.fresh ctx
      and la = Tseitin.fresh ctx
      and lb = Tseitin.fresh ctx in
      let o = Tseitin.mux_gate ctx ~sel:ls la lb in
      Tseitin.assert_lit ctx (if sel then ls else -ls);
      Tseitin.assert_lit ctx (if a then la else -la);
      Tseitin.assert_lit ctx (if b then lb else -lb);
      (match Solver.solve s with
      | Solver.Sat ->
          let got =
            if o > 0 then Solver.model_value s o
            else not (Solver.model_value s (-o))
          in
          check_bool "mux" (if sel then a else b) got
      | Solver.Unsat | Solver.Unknown -> Alcotest.fail "unsat"))
    [ (true, true, false); (false, true, false); (true, false, true);
      (false, false, true) ]

let tseitin_full_adder () =
  List.iter
    (fun (a, b, c) ->
      let s = Solver.create 0 in
      let ctx = Tseitin.create s in
      let la = Tseitin.of_bool ctx a
      and lb = Tseitin.of_bool ctx b
      and lc = Tseitin.of_bool ctx c in
      let sum, carry = Tseitin.full_adder ctx la lb lc in
      (match Solver.solve s with
      | Solver.Sat ->
          let value l =
            if l > 0 then Solver.model_value s l
            else not (Solver.model_value s (-l))
          in
          let total = Bool.to_int a + Bool.to_int b + Bool.to_int c in
          check_bool "sum" (total land 1 = 1) (value sum);
          check_bool "carry" (total >= 2) (value carry)
      | Solver.Unsat | Solver.Unknown -> Alcotest.fail "unsat"))
    [
      (false, false, false); (true, false, false); (false, true, true);
      (true, true, true);
    ]

let tseitin_constant_folding () =
  let s = Solver.create 0 in
  let ctx = Tseitin.create s in
  let t = Tseitin.const_true ctx and f = Tseitin.const_false ctx in
  Alcotest.(check int) "and(t,x)=x" 0
    (let x = Tseitin.fresh ctx in
     Tseitin.and_gate ctx t x - x);
  Alcotest.(check int) "or const" t (Tseitin.or_gate ctx t f);
  Alcotest.(check int) "xor(x,x)=false" f
    (let x = Tseitin.fresh ctx in
     Tseitin.xor_gate ctx x x)

(* --- Tseitin structural hashing --- *)

(* [gate] must return [want] (the literal of an earlier gate, or its
   negation) without allocating a variable. *)
let check_shared name ctx want gate =
  let s = Tseitin.solver ctx in
  let nvars = Solver.nvars s in
  Alcotest.(check int) name want (gate ());
  Alcotest.(check int) (name ^ ": no new variable") nvars (Solver.nvars s)

let tseitin_shared_gates () =
  let ctx = Tseitin.create (Solver.create 0) in
  let a = Tseitin.fresh ctx and b = Tseitin.fresh ctx and s = Tseitin.fresh ctx in
  let ab = Tseitin.and_gate ctx a b in
  check_shared "and commutes" ctx ab (fun () -> Tseitin.and_gate ctx b a);
  let nanb = Tseitin.and_gate ctx (-a) (-b) in
  check_shared "or reuses its and" ctx (-nanb) (fun () ->
      Tseitin.or_gate ctx a b);
  let x = Tseitin.xor_gate ctx a b in
  check_shared "xor of a negated operand" ctx (-x) (fun () ->
      Tseitin.xor_gate ctx (-a) b);
  check_shared "xor of two negated operands" ctx x (fun () ->
      Tseitin.xor_gate ctx (-b) (-a));
  check_shared "iff is the negated xor" ctx (-x) (fun () ->
      Tseitin.iff_gate ctx a b);
  let m = Tseitin.mux_gate ctx ~sel:s b a in
  check_shared "mux with a negated selector swaps its arms" ctx m (fun () ->
      Tseitin.mux_gate ctx ~sel:(-s) a b)

let tseitin_distinct_gates () =
  (* keys separate different functions of the same operands *)
  let ctx = Tseitin.create (Solver.create 0) in
  let a = Tseitin.fresh ctx and b = Tseitin.fresh ctx and s = Tseitin.fresh ctx in
  let gates =
    [
      Tseitin.and_gate ctx a b;
      Tseitin.and_gate ctx a (-b);
      Tseitin.and_gate ctx (-a) b;
      Tseitin.xor_gate ctx a b;
      Tseitin.mux_gate ctx ~sel:s a b;
      Tseitin.mux_gate ctx ~sel:s b a;
      Tseitin.mux_gate ctx ~sel:a s b;
    ]
  in
  let vars = List.sort_uniq compare (List.map abs gates) in
  Alcotest.(check int) "one variable per gate" (List.length gates)
    (List.length vars)

(* --- qcheck: random instances vs brute force --- *)

let brute_force nvars clauses =
  let rec go asn v =
    if v > nvars then
      List.for_all
        (List.exists (fun l ->
             let x = asn.(abs l) in
             if l > 0 then x else not x))
        clauses
    else begin
      asn.(v) <- true;
      go asn (v + 1)
      ||
      (asn.(v) <- false;
       go asn (v + 1))
    end
  in
  go (Array.make (nvars + 1) false) 1

(* A script of steps over one solver: each step adds a batch of clauses,
   then solves under assumptions.  A one-step script without assumptions
   is the one-shot instance. *)
let gen_script =
  QCheck.Gen.(
    let* nvars = 2 -- 8 in
    let lit =
      let* v = 1 -- nvars in
      let* sign = bool in
      return (if sign then v else -v)
    in
    let* nsteps = 1 -- 4 in
    let* steps =
      list_repeat nsteps
        (let* nclauses = 1 -- 25 in
         let* clauses =
           list_repeat nclauses
             (let* k = 1 -- 3 in
              list_repeat k lit)
         in
         let* nassumed = 0 -- 3 in
         let* assumptions = list_repeat nassumed lit in
         return (clauses, assumptions))
    in
    return (nvars, steps))

let qcheck_vs_brute_force =
  QCheck.Test.make ~name:"solver agrees with brute force" ~count:300
    (QCheck.make gen_script)
    (fun (nvars, steps) ->
      let s = Solver.create nvars in
      let holds l =
        if l > 0 then Solver.model_value s l
        else not (Solver.model_value s (-l))
      in
      let rec run so_far = function
        | [] -> true
        | (clauses, assumptions) :: rest -> (
            List.iter (Solver.add_clause s) clauses;
            let so_far = so_far @ clauses in
            let posed = so_far @ List.map (fun l -> [ l ]) assumptions in
            match Solver.solve ~assumptions s with
            | Solver.Sat ->
                brute_force nvars posed
                && List.for_all (List.exists holds) posed
                && run so_far rest
            | Solver.Unsat -> (not (brute_force nvars posed)) && run so_far rest
            | Solver.Unknown -> false)
      in
      run [] steps)

(* --- incremental use (solve / add_clause / solve) --- *)

let add_clause_after_solve () =
  (* clause addition between solves backtracks to the root first, so
     the strengthened instance answers correctly *)
  let s = Solver.create 0 in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ a; b ];
  check_bool "sat first" true (is_sat (Solver.solve s));
  Solver.add_clause s [ -a ];
  check_bool "still sat" true (is_sat (Solver.solve s));
  check_bool "b forced" true (Solver.model_value s b);
  Solver.add_clause s [ -b ];
  check_bool "now unsat" true (is_unsat (Solver.solve s))

let activation_literal_retires () =
  (* the convention documented on add_clause: a guarded query is posed
     under an assumption, retired with a unit, and never pollutes later
     queries *)
  let s = Solver.create 0 in
  let x = Solver.new_var s in
  Solver.add_clause s [ x ];
  let act = Solver.new_var s in
  Solver.add_clause s [ -act; -x ];
  (* under the activation literal the query -x contradicts x *)
  check_bool "guarded query unsat" true
    (is_unsat (Solver.solve ~assumptions:[ act ] s));
  Solver.add_clause s [ -act ];
  check_bool "retired: instance sat again" true (is_sat (Solver.solve s))

let resolve_spends_nothing () =
  let s = Solver.create 0 in
  let vars = List.init 6 (fun _ -> Solver.new_var s) in
  List.iter (fun v -> Solver.add_clause s [ v ]) vars;
  check_bool "sat" true (is_sat (Solver.solve s));
  let before = Solver.stats s in
  check_bool "re-solve sat" true (is_sat (Solver.solve s));
  let after = Solver.stats s in
  (* a repeat solve of an already-satisfied instance spends no
     conflicts and makes no decisions *)
  Alcotest.(check int) "no conflicts re-spent" before.Solver.conflicts
    after.Solver.conflicts;
  Alcotest.(check int) "no decisions re-made" before.Solver.decisions
    after.Solver.decisions

let suite =
  [
    Alcotest.test_case "trivial sat" `Quick trivial_sat;
    Alcotest.test_case "trivial unsat" `Quick trivial_unsat;
    Alcotest.test_case "empty clause" `Quick empty_clause_unsat;
    Alcotest.test_case "no clauses" `Quick no_clauses_sat;
    Alcotest.test_case "model satisfies" `Quick model_satisfies;
    Alcotest.test_case "pigeonhole unsat" `Quick pigeonhole_unsat;
    Alcotest.test_case "pigeonhole sat" `Quick pigeonhole_sat;
    Alcotest.test_case "assumptions" `Quick assumptions_work;
    Alcotest.test_case "assumption literals validated" `Quick
      assumption_literals_validated;
    Alcotest.test_case "repeated assumptions" `Quick repeated_assumptions;
    Alcotest.test_case "pigeonhole trajectory" `Quick pigeonhole_trajectory;
    Alcotest.test_case "incremental trajectory" `Quick incremental_trajectory;
    Alcotest.test_case "conflict budget" `Quick conflict_budget;
    Alcotest.test_case "new_var growth" `Quick new_var_growth;
    Alcotest.test_case "add_clause after solve" `Quick add_clause_after_solve;
    Alcotest.test_case "activation literal retires" `Quick
      activation_literal_retires;
    Alcotest.test_case "re-solve spends no conflicts" `Quick
      resolve_spends_nothing;
    Alcotest.test_case "exhausted governor skips search" `Quick
      exhausted_governor_skips_search;
    Alcotest.test_case "ample governor does ungoverned work" `Quick
      ample_governor_does_ungoverned_work;
    Alcotest.test_case "governor allowance spans calls" `Quick
      governor_allowance_spans_calls;
    Alcotest.test_case "governor child caps a call" `Quick
      governor_child_caps_call;
    Alcotest.test_case "unit propagation chain" `Quick unit_propagation_chain;
    Alcotest.test_case "solver reusable across solves" `Quick
      solver_reusable_across_solves;
    Alcotest.test_case "tseitin truth tables" `Quick tseitin_truth_tables;
    Alcotest.test_case "tseitin mux" `Quick tseitin_mux;
    Alcotest.test_case "tseitin full adder" `Quick tseitin_full_adder;
    Alcotest.test_case "tseitin constant folding" `Quick
      tseitin_constant_folding;
    Alcotest.test_case "tseitin shares equal gates" `Quick
      tseitin_shared_gates;
    Alcotest.test_case "tseitin keeps distinct gates apart" `Quick
      tseitin_distinct_gates;
    QCheck_alcotest.to_alcotest qcheck_vs_brute_force;
  ]
