(* Tests for the linear-programming verification stack. *)

open Symbad_lpv

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rat = Alcotest.testable Rat.pp Rat.equal

(* --- Rat --- *)

let rat_normalisation () =
  Alcotest.check rat "6/4 = 3/2" (Rat.make 3 2) (Rat.make 6 4);
  Alcotest.check rat "sign in num" (Rat.make (-1) 2) (Rat.make 1 (-2));
  Alcotest.check rat "zero" Rat.zero (Rat.make 0 17);
  check "den positive" 2 (Rat.den (Rat.make 1 (-2)))

let rat_arithmetic () =
  Alcotest.check rat "add" (Rat.make 5 6) (Rat.add (Rat.make 1 2) (Rat.make 1 3));
  Alcotest.check rat "sub" (Rat.make 1 6) (Rat.sub (Rat.make 1 2) (Rat.make 1 3));
  Alcotest.check rat "mul" (Rat.make 1 6) (Rat.mul (Rat.make 1 2) (Rat.make 1 3));
  Alcotest.check rat "div" (Rat.make 3 2) (Rat.div (Rat.make 1 2) (Rat.make 1 3));
  check_bool "compare" true Rat.(make 1 3 < make 1 2);
  check_bool "div by zero" true
    (try ignore (Rat.div Rat.one Rat.zero); false
     with Invalid_argument _ -> true)

let qcheck_rat_field_laws =
  let gen =
    QCheck.Gen.(
      let* n = -50 -- 50 in
      let* d = 1 -- 30 in
      return (Rat.make n d))
  in
  QCheck.Test.make ~name:"rational ring laws" ~count:300
    (QCheck.make (QCheck.Gen.triple gen gen gen))
    (fun (a, b, c) ->
      Rat.equal (Rat.add a b) (Rat.add b a)
      && Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c))
      && Rat.equal (Rat.sub (Rat.add a b) b) a
      && (Rat.is_zero c || Rat.equal (Rat.div (Rat.mul a c) c) a))

(* --- Simplex --- *)

let le_row coeffs rhs =
  { Simplex.coeffs = List.mapi (fun i c -> (i, Rat.of_int c)) coeffs
                     |> List.filter (fun (_, q) -> not (Rat.is_zero q));
    cmp = Simplex.Le; rhs = Rat.of_int rhs }

let simplex_textbook_max () =
  (* max 3x+2y st x+y<=4, x+3y<=6 -> 12 at (4,0) *)
  match
    Simplex.solve
      { Simplex.nvars = 2;
        constraints = [ le_row [ 1; 1 ] 4; le_row [ 1; 3 ] 6 ];
        objective = [ (0, Rat.of_int 3); (1, Rat.of_int 2) ];
        minimize = false }
  with
  | Simplex.Optimal { value; solution } ->
      Alcotest.check rat "value" (Rat.of_int 12) value;
      Alcotest.check rat "x" (Rat.of_int 4) solution.(0)
  | Simplex.Infeasible | Simplex.Unbounded -> Alcotest.fail "expected optimum"

let simplex_fractional_optimum () =
  (* max x+y st 2x+y<=3, x+2y<=3 -> optimum 2 at (1,1) *)
  match
    Simplex.solve
      { Simplex.nvars = 2;
        constraints = [ le_row [ 2; 1 ] 3; le_row [ 1; 2 ] 3 ];
        objective = [ (0, Rat.one); (1, Rat.one) ];
        minimize = false }
  with
  | Simplex.Optimal { value; _ } -> Alcotest.check rat "value" (Rat.of_int 2) value
  | _ -> Alcotest.fail "expected optimum"

let simplex_infeasible () =
  let constraints =
    [ { Simplex.coeffs = [ (0, Rat.one) ]; cmp = Simplex.Le; rhs = Rat.one };
      { Simplex.coeffs = [ (0, Rat.one) ]; cmp = Simplex.Ge; rhs = Rat.of_int 2 } ]
  in
  check_bool "infeasible" true
    (Simplex.solve
       { Simplex.nvars = 1; constraints; objective = []; minimize = true }
    = Simplex.Infeasible)

let simplex_unbounded () =
  match
    Simplex.solve
      { Simplex.nvars = 1;
        constraints = [ { Simplex.coeffs = [ (0, Rat.one) ]; cmp = Simplex.Ge; rhs = Rat.one } ];
        objective = [ (0, Rat.one) ];
        minimize = false }
  with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let simplex_equality_constraints () =
  (* x + y = 5, x - y = 1 -> x = 3, y = 2 *)
  let eq coeffs rhs =
    { Simplex.coeffs = List.mapi (fun i c -> (i, Rat.of_int c)) coeffs
                       |> List.filter (fun (_, q) -> not (Rat.is_zero q));
      cmp = Simplex.Eq; rhs = Rat.of_int rhs }
  in
  match
    Simplex.solve
      { Simplex.nvars = 2;
        constraints = [ eq [ 1; 1 ] 5; eq [ 1; -1 ] 1 ];
        objective = [ (0, Rat.one) ];
        minimize = true }
  with
  | Simplex.Optimal { solution; _ } ->
      Alcotest.check rat "x" (Rat.of_int 3) solution.(0);
      Alcotest.check rat "y" (Rat.of_int 2) solution.(1)
  | _ -> Alcotest.fail "expected optimum"

let simplex_negative_rhs () =
  (* -x <= -2 i.e. x >= 2; minimise x -> 2 *)
  match
    Simplex.solve
      { Simplex.nvars = 1;
        constraints = [ le_row [ -1 ] (-2) ];
        objective = [ (0, Rat.one) ];
        minimize = true }
  with
  | Simplex.Optimal { value; _ } -> Alcotest.check rat "min" (Rat.of_int 2) value
  | _ -> Alcotest.fail "expected optimum"

(* qcheck: on random bounded feasible LPs, the reported optimum satisfies
   all constraints and is at least as good as random feasible samples. *)
let qcheck_simplex_sound =
  let gen =
    QCheck.Gen.(
      let* n = 2 -- 3 in
      let* rows = list_size (1 -- 4) (list_repeat n (0 -- 5)) in
      let* rhs = list_size (return (List.length rows)) (1 -- 20) in
      let* obj = list_repeat n (0 -- 5) in
      return (n, List.combine rows rhs, obj))
  in
  QCheck.Test.make ~name:"simplex optimum is feasible and dominant" ~count:150
    (QCheck.make gen)
    (fun (n, rows, obj) ->
      let constraints = List.map (fun (r, b) -> le_row r b) rows in
      match
        Simplex.solve
          { Simplex.nvars = n; constraints;
            objective = List.mapi (fun i c -> (i, Rat.of_int c)) obj;
            minimize = false }
      with
      | Simplex.Infeasible -> false (* 0 is always feasible for <=, rhs>0 *)
      | Simplex.Unbounded ->
          (* possible when some column never appears with positive coeff *)
          true
      | Simplex.Optimal { value; solution } ->
          let dot xs =
            List.fold_left2
              (fun acc c i -> Rat.add acc (Rat.mul (Rat.of_int c) xs.(i)))
              Rat.zero obj
              (List.init n (fun i -> i))
          in
          let feasible =
            List.for_all
              (fun (r, b) ->
                let lhs =
                  List.fold_left2
                    (fun acc c i -> Rat.add acc (Rat.mul (Rat.of_int c) solution.(i)))
                    Rat.zero r
                    (List.init n (fun i -> i))
                in
                Rat.(lhs <= of_int b))
              rows
          in
          feasible && Rat.equal value (dot solution) && Rat.(value >= zero))

(* --- Petri nets --- *)

let build_pipeline () =
  let net = Petri.create () in
  let a = Petri.add_transition net ~delay:3 () in
  let b = Petri.add_transition net ~delay:5 () in
  let p = Petri.add_place net ~tokens:0 "ab" in
  let credit = Petri.add_place net ~tokens:2 "ab.credit" in
  Petri.add_post net ~transition:a ~place:p;
  Petri.add_pre net ~transition:b ~place:p;
  Petri.add_pre net ~transition:a ~place:credit;
  Petri.add_post net ~transition:b ~place:credit;
  (net, a, b, p)

let petri_incidence () =
  let net, a, b, p = build_pipeline () in
  Alcotest.(check (list int)) "producers" [ a ] (Petri.producers net p);
  Alcotest.(check (list int)) "consumers" [ b ] (Petri.consumers net p)

let deadlock_free_pipeline () =
  let net, _, _, _ = build_pipeline () in
  match Deadlock.check net with
  | Deadlock.Deadlock_free { min_cycle_tokens } ->
      (* the only cycle is ab/credit: (0 + 2) tokens over 2 places *)
      Alcotest.check rat "cycle tokens" Rat.one min_cycle_tokens
  | _ -> Alcotest.fail "expected deadlock-free"

(* A and B waiting on each other: A feeds B through "ab", B feeds A
   through "ba". *)
let crossed ?(delays = (0, 0)) (tokens_ab, tokens_ba) =
  let net = Petri.create () in
  let a = Petri.add_transition net ~delay:(fst delays) () in
  let b = Petri.add_transition net ~delay:(snd delays) () in
  let ab = Petri.add_place net ~tokens:tokens_ab "ab" in
  let ba = Petri.add_place net ~tokens:tokens_ba "ba" in
  Petri.add_post net ~transition:a ~place:ab;
  Petri.add_pre net ~transition:b ~place:ab;
  Petri.add_post net ~transition:b ~place:ba;
  Petri.add_pre net ~transition:a ~place:ba;
  net

let deadlock_detected_crossed () =
  match Deadlock.check (crossed (0, 0)) with
  | Deadlock.Potential_deadlock { witness } ->
      Alcotest.(check (list string)) "witness cycle" [ "ab"; "ba" ]
        (List.sort compare witness)
  | _ -> Alcotest.fail "expected deadlock"

let deadlock_fixed_by_initial_token () =
  (* the classic fix: prime the feedback channel *)
  match Deadlock.check (crossed (0, 1)) with
  | Deadlock.Deadlock_free _ -> ()
  | _ -> Alcotest.fail "expected deadlock-free after priming"

(* --- Timing --- *)

let timing_bottleneck () =
  let net, _, _, _ = build_pipeline () in
  (* self-loops make each transition non-reentrant *)
  List.iteri
    (fun i _ ->
      let p = Petri.add_place net ~tokens:1 (Printf.sprintf "self%d" i) in
      Petri.add_pre net ~transition:i ~place:p;
      Petri.add_post net ~transition:i ~place:p)
    [ (); () ];
  match Timing.min_cycle_ratio net with
  | Timing.Period p -> Alcotest.check rat "bottleneck 5" (Rat.of_int 5) p
  | Timing.Unschedulable _ | Timing.Not_analyzable _ ->
      Alcotest.fail "schedulable"

let timing_capacity_effect () =
  (* capacity 1 on a 2-stage pipeline: period = d(A)+d(B) over 1 token *)
  let build cap =
    let net = Petri.create () in
    let a = Petri.add_transition net ~delay:3 () in
    let b = Petri.add_transition net ~delay:5 () in
    let p = Petri.add_place net ~tokens:0 "ab" in
    let credit = Petri.add_place net ~tokens:cap "credit" in
    Petri.add_post net ~transition:a ~place:p;
    Petri.add_pre net ~transition:b ~place:p;
    Petri.add_pre net ~transition:a ~place:credit;
    Petri.add_post net ~transition:b ~place:credit;
    net
  in
  (match Timing.min_cycle_ratio (build 1) with
  | Timing.Period p -> Alcotest.check rat "cap 1: 8" (Rat.of_int 8) p
  | Timing.Unschedulable _ | Timing.Not_analyzable _ ->
      Alcotest.fail "schedulable");
  match Timing.min_cycle_ratio (build 4) with
  | Timing.Period p -> Alcotest.check rat "cap 4: 2" (Rat.of_int 2) p
  | Timing.Unschedulable _ | Timing.Not_analyzable _ ->
      Alcotest.fail "schedulable"

let timing_deadline_and_dimensioning () =
  let build ?(delays = (3, 5)) cap =
    let net = Petri.create () in
    let a = Petri.add_transition net ~delay:(fst delays) () in
    let b = Petri.add_transition net ~delay:(snd delays) () in
    let p = Petri.add_place net ~tokens:0 "ab" in
    let credit = Petri.add_place net ~tokens:cap "credit" in
    Petri.add_post net ~transition:a ~place:p;
    Petri.add_pre net ~transition:b ~place:p;
    Petri.add_pre net ~transition:a ~place:credit;
    Petri.add_post net ~transition:b ~place:credit;
    net
  in
  check_bool "deadline 8 met at cap 1" true (Timing.deadline_met ~deadline:8 (build 1));
  check_bool "deadline 5 missed at cap 1" false
    (Timing.deadline_met ~deadline:5 (build 1));
  Alcotest.(check (option int)) "min capacity for deadline 5" (Some 2)
    (Timing.min_uniform_capacity ~deadline:5 ~build ());
  (* the search stops at capacity 64: a cycle of delay 130 meets period
     3 from capacity 44 but period 2 only from capacity 65 *)
  let slow = build ~delays:(100, 30) in
  Alcotest.(check (option int)) "deadline 3 at cap 44" (Some 44)
    (Timing.min_uniform_capacity ~deadline:3 ~build:slow ());
  Alcotest.(check (option int)) "deadline 2 impossible within bound" None
    (Timing.min_uniform_capacity ~deadline:2 ~build:slow ())

let timing_zero_token_cycle () =
  match Timing.min_cycle_ratio (crossed ~delays:(1, 1) (0, 0)) with
  | Timing.Unschedulable why ->
      Alcotest.(check string) "names the cycle in order"
        "zero-token cycle with positive delay through {ab, ba}" why
  | Timing.Period _ | Timing.Not_analyzable _ ->
      Alcotest.fail "expected unschedulable"

(* With one token on each place the crossed pair has period
   (d(A) + d(B)) / 2.  Within the exact bound n·D·M <= max_int / 4 the
   period is exact; past it the engine refuses instead of wrapping. *)
let timing_delay_bound () =
  let ring da db = crossed ~delays:(da, db) (1, 1) in
  (match Timing.min_cycle_ratio (ring 1_000_000_000_000_000 3_000_000_000_000_000) with
  | Timing.Period p ->
      Alcotest.check rat "exact large period" (Rat.of_int 2_000_000_000_000_000) p
  | v -> Alcotest.failf "expected a period, got %a" Timing.pp_verdict v);
  List.iter
    (fun (da, db) ->
      match Timing.min_cycle_ratio (ring da db) with
      | Timing.Not_analyzable why ->
          check_bool "engine error" true
            (String.starts_with ~prefix:"engine error:" why)
      | v -> Alcotest.failf "expected not analyzable, got %a" Timing.pp_verdict v)
    [ (max_int / 4, 1); (max_int, max_int); (min_int, 0) ]

(* The cycle-ratio LP the engine replaced, kept as its specification
   (Dellacherie et al., 1999): minimise r >= 0 subject to
   s(consumer) - s(producer) + r * m(p) >= delay(producer) for every
   (place, producer, consumer), each potential split into nonnegative
   parts s+ - s-.  [None] when infeasible: a zero-token cycle. *)
let lp_period net =
  let nt = Petri.n_transitions net in
  let sp t = t and sm t = nt + t and r_var = 2 * nt in
  let m0 = Petri.initial_marking net in
  let constraints =
    List.concat
      (List.init (Petri.n_places net) (fun p ->
           List.concat_map
             (fun producer ->
               List.map
                 (fun consumer ->
                   {
                     Simplex.coeffs =
                       [
                         (sp consumer, Rat.one);
                         (sm consumer, Rat.minus_one);
                         (sp producer, Rat.minus_one);
                         (sm producer, Rat.one);
                         (r_var, Rat.of_int m0.(p));
                       ];
                     cmp = Simplex.Ge;
                     rhs = Rat.of_int (Petri.delay net producer);
                   })
                 (Petri.consumers net p))
             (Petri.producers net p)))
  in
  match
    Simplex.solve
      { nvars = r_var + 1; constraints; objective = [ (r_var, Rat.one) ];
        minimize = true }
  with
  | Simplex.Optimal { value; _ } -> Some value
  | Simplex.Infeasible -> None
  | Simplex.Unbounded -> Alcotest.fail "r >= 0 bounds the LP"

(* The definition, by brute force: the largest delay/token ratio over
   the simple cycles (each enumerated once, from its lowest transition),
   at least 0; [None] when a cycle has positive delay and no token. *)
let brute_period net =
  let n = Petri.n_transitions net and m0 = Petri.initial_marking net in
  let arcs =
    List.concat
      (List.init (Petri.n_places net) (fun p ->
           List.concat_map
             (fun u ->
               List.map (fun v -> (u, v, m0.(p))) (Petri.consumers net p))
             (Petri.producers net p)))
  in
  let best = ref (Some Rat.zero) and on_path = Array.make n false in
  let record d m =
    match !best with
    | None -> ()
    | Some r ->
        if m = 0 then (if d > 0 then best := None)
        else if Rat.(make d m > r) then best := Some (Rat.make d m)
  in
  let rec extend start v d m =
    List.iter
      (fun (u, w, tokens) ->
        if u = v then
          let d = d + Petri.delay net u and m = m + tokens in
          if w = start then record d m
          else if w > start && not on_path.(w) then begin
            on_path.(w) <- true;
            extend start w d m;
            on_path.(w) <- false
          end)
      arcs
  in
  for start = 0 to n - 1 do
    extend start start 0 0
  done;
  !best

(* Random strongly connected marked graphs: a ring through every
   transition plus up to n extra places (self-loops and parallel places
   included), 0-2 tokens per place, delays up to 10^9 (some 0).  Place
   i is named "p<i>". *)
let marked_graph =
  let gen =
    QCheck.Gen.(
      let* n = 2 -- 9 in
      let* delays =
        list_repeat n (frequency [ (1, return 0); (4, 1 -- 1_000_000_000) ])
      in
      let* ring = list_repeat n (0 -- 2) in
      let* extra = list_size (0 -- n) (triple (0 -- (n - 1)) (0 -- (n - 1)) (0 -- 2)) in
      return (delays, ring, extra))
  in
  let print (delays, ring, extra) =
    let ints l = String.concat ";" (List.map string_of_int l) in
    Printf.sprintf "delays [%s] ring tokens [%s] extra [%s]" (ints delays)
      (ints ring)
      (String.concat ";"
         (List.map (fun (s, d, k) -> Printf.sprintf "%d->%d:%d" s d k) extra))
  in
  QCheck.make ~print gen

let build_marked_graph (delays, ring, extra) =
  let net = Petri.create () in
  let n = List.length delays in
  List.iter (fun delay -> ignore (Petri.add_transition net ~delay ())) delays;
  let place src dst tokens =
    let p =
      Petri.add_place net ~tokens (Printf.sprintf "p%d" (Petri.n_places net))
    in
    Petri.add_post net ~transition:src ~place:p;
    Petri.add_pre net ~transition:dst ~place:p
  in
  List.iteri (fun i tokens -> place i ((i + 1) mod n) tokens) ring;
  List.iter (fun (src, dst, tokens) -> place src dst tokens) extra;
  net

let qcheck_period_references =
  QCheck.Test.make ~name:"period = cycle-ratio LP = brute-force cycles"
    ~count:2000 marked_graph
    (fun spec ->
      let net = build_marked_graph spec in
      match (Timing.min_cycle_ratio net, lp_period net, brute_period net) with
      | Timing.Period r, Some lp, Some brute -> Rat.equal r lp && Rat.equal r brute
      | Timing.Unschedulable _, None, None -> true
      | _ -> false)

(* The paper's place-invariant LP, the deadlock check's specification:
   minimise the initial tokens y . M0 over y >= 0 with y C = 0 (C the
   incidence matrix, post - pre) and sum y = 1.  The invariants of a
   marked graph are its cycles, so a positive optimum is the least
   tokens/places over the cycles, a zero optimum's support is a
   token-free cycle, and no invariant at all means no cycle. *)
let lp_deadlock net =
  let np = Petri.n_places net and nt = Petri.n_transitions net in
  let m0 = Petri.initial_marking net in
  let count t ts = List.length (List.filter (( = ) t) ts) in
  let incidence t p =
    count t (Petri.producers net p) - count t (Petri.consumers net p)
  in
  let nonzero = List.filter (fun (_, q) -> not (Rat.is_zero q)) in
  let invariant_rows =
    List.init nt (fun t ->
        {
          Simplex.coeffs =
            nonzero (List.init np (fun p -> (p, Rat.of_int (incidence t p))));
          cmp = Simplex.Eq;
          rhs = Rat.zero;
        })
  in
  let normalisation =
    {
      Simplex.coeffs = List.init np (fun p -> (p, Rat.one));
      cmp = Simplex.Eq;
      rhs = Rat.one;
    }
  in
  match
    Simplex.solve
      {
        nvars = np;
        constraints = normalisation :: invariant_rows;
        objective = nonzero (List.init np (fun p -> (p, Rat.of_int m0.(p))));
        minimize = true;
      }
  with
  | Simplex.Infeasible ->
      Deadlock.Deadlock_free { min_cycle_tokens = Rat.of_int max_int }
  | Simplex.Unbounded -> Alcotest.fail "y . M0 >= 0 bounds the LP"
  | Simplex.Optimal { value; _ } when Rat.sign value > 0 ->
      Deadlock.Deadlock_free { min_cycle_tokens = value }
  | Simplex.Optimal { solution; _ } ->
      let support p = Rat.sign solution.(p) > 0 in
      Deadlock.Potential_deadlock
        {
          witness =
            List.map (Petri.place_name net)
              (List.filter support (List.init np Fun.id));
        }

(* Is [witness] the place set, in place-index order, of one closed cycle
   of token-free places?  Read off the net alone (place names unique):
   following each witness place from its producer to its consumer, from
   the first place, must come back to it after visiting every witness
   place exactly once. *)
let token_free_cycle net witness =
  let places = List.init (Petri.n_places net) Fun.id in
  let ps =
    List.map
      (fun w -> List.find (fun p -> Petri.place_name net p = w) places)
      witness
  in
  let m0 = Petri.initial_marking net in
  let next p =
    List.find_opt (fun q -> Petri.producers net q = Petri.consumers net p) ps
  in
  match ps with
  | [] -> false
  | first :: _ ->
      let len = List.length ps in
      let rec walk k p =
        match next p with
        | Some q when q = first -> k = len
        | Some q -> k < len && walk (k + 1) q
        | None -> false
      in
      List.sort_uniq compare ps = ps
      && List.for_all (fun p -> m0.(p) = 0) ps
      && walk 1 first

let qcheck_deadlock_references =
  QCheck.Test.make ~name:"deadlock = invariant LP, witness a token-free cycle"
    ~count:2000 marked_graph
    (fun spec ->
      let net = build_marked_graph spec in
      match (Deadlock.check net, lp_deadlock net) with
      | ( Deadlock.Deadlock_free { min_cycle_tokens = search },
          Deadlock.Deadlock_free { min_cycle_tokens = lp } ) ->
          Rat.equal search lp
      | Deadlock.Potential_deadlock { witness }, Deadlock.Potential_deadlock _ ->
          token_free_cycle net witness
      | _ -> false)

let suite =
  [
    Alcotest.test_case "rat normalisation" `Quick rat_normalisation;
    Alcotest.test_case "rat arithmetic" `Quick rat_arithmetic;
    Alcotest.test_case "simplex textbook max" `Quick simplex_textbook_max;
    Alcotest.test_case "simplex fractional optimum" `Quick
      simplex_fractional_optimum;
    Alcotest.test_case "simplex infeasible" `Quick simplex_infeasible;
    Alcotest.test_case "simplex unbounded" `Quick simplex_unbounded;
    Alcotest.test_case "simplex equality constraints" `Quick
      simplex_equality_constraints;
    Alcotest.test_case "simplex negative rhs" `Quick simplex_negative_rhs;
    Alcotest.test_case "petri incidence" `Quick petri_incidence;
    Alcotest.test_case "deadlock-free pipeline" `Quick deadlock_free_pipeline;
    Alcotest.test_case "deadlock in crossed wait" `Quick
      deadlock_detected_crossed;
    Alcotest.test_case "deadlock fixed by priming" `Quick
      deadlock_fixed_by_initial_token;
    Alcotest.test_case "timing bottleneck" `Quick timing_bottleneck;
    Alcotest.test_case "timing capacity effect" `Quick timing_capacity_effect;
    Alcotest.test_case "deadline + FIFO dimensioning" `Quick
      timing_deadline_and_dimensioning;
    Alcotest.test_case "zero-token cycle unschedulable" `Quick
      timing_zero_token_cycle;
    Alcotest.test_case "timing delay bound" `Quick timing_delay_bound;
    QCheck_alcotest.to_alcotest qcheck_rat_field_laws;
    QCheck_alcotest.to_alcotest qcheck_simplex_sound;
    QCheck_alcotest.to_alcotest qcheck_period_references;
    QCheck_alcotest.to_alcotest qcheck_deadlock_references;
  ]
