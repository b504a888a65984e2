(* CDCL SAT solver (MiniSat architecture): two-watched-literal
   propagation, first-UIP clause learning, VSIDS-style activities with
   phase saving, and Luby restarts.  Literals are non-zero ints: [v] is
   the positive literal of variable [v >= 1], [-v] its negation.

   The data structures are laid out as in MiniSat (Een & Sorensson,
   SAT 2003):
   - decisions pop a binary heap of variables ordered by activity, ties
     to the lowest index; assigned variables stay in the heap until
     popped, and backtracking re-inserts the variables it unassigns;
   - each literal's watchers are an int vector, visited most recently
     added first; propagation rewrites the survivors in visiting order
     (so the next visit runs them in reverse);
   - clauses live in one flat int arena, a clause reference being the
     offset of its length word, its literals following it.

   Inside the solver a literal is its code: [2v] for [v], [2v + 1] for
   [-v], so [code lxor 1] is its negation and [code lsr 1] its variable.
   Values and watchers are indexed by code; the trail and the arena
   hold codes.

   The search trajectory is part of the contract: every decision,
   propagation and learned clause, hence every conflict count, model
   and counterexample.  The budgeted verdict mixes in
   test/golden/gov.json, the verdicts in the verification cache and
   [Mc.Engine.version] rely on it, and test/test_sat.ml pins it.  The
   heap tie-break, the watcher order and the literal order inside a
   clause (conflict analysis iterates it) all decide the trajectory. *)

type result = Sat | Unsat | Unknown

type t = {
  mutable nvars : int;
  (* clause [c]: arena.(c) literals at arena.(c + 1) ..
     arena.(c + arena.(c)) *)
  mutable arena : int array;
  mutable arena_size : int;
  mutable nclauses : int;
  (* the clauses watching literal code [p] are the first nwatches.(p)
     entries of watches.(p), oldest first *)
  mutable watches : int array array;
  mutable nwatches : int array;
  mutable visiting : int array; (* propagate's copy of one watch vector *)
  (* value.(p) for literal code [p]: 0 undef, 1 true, -1 false *)
  mutable value : int array;
  mutable level : int array;
  mutable reason : int array; (* clause reference or -1 *)
  mutable activity : float array;
  mutable phase : bool array; (* saved polarity *)
  (* decision order: heap.(0 .. heap_size - 1), heap_pos.(v) the index
     of [v] in it or -1 *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable heap_pos : int array;
  mutable seen : bool array; (* all false outside [analyze]/[add_clause] *)
  mutable lower : int array; (* [analyze]'s lower-level literals *)
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int array;
  mutable trail_lim_size : int;
  mutable qhead : int;
  mutable var_inc : float;
  mutable ok : bool; (* false once root-level conflict found *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable learned : int;
  mutable restarts : int;
}

let code l = if l > 0 then 2 * l else (2 * -l) + 1

let grow a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let create nvars =
  if nvars < 0 then invalid_arg "Solver.create: nvars";
  let n = nvars + 1 in
  {
    nvars;
    arena = Array.make 64 0;
    arena_size = 0;
    nclauses = 0;
    watches = Array.make (2 * (n + 1)) [||];
    nwatches = Array.make (2 * (n + 1)) 0;
    visiting = Array.make 16 0;
    value = Array.make (2 * (n + 1)) 0;
    level = Array.make n 0;
    reason = Array.make n (-1);
    activity = Array.make n 0.;
    phase = Array.make n false;
    (* equal activities: index order is already a heap *)
    heap = Array.init n (fun i -> i + 1);
    heap_size = nvars;
    heap_pos = Array.init n (fun v -> v - 1);
    seen = Array.make n false;
    lower = Array.make n 0;
    trail = Array.make n 0;
    trail_size = 0;
    trail_lim = [||];
    trail_lim_size = 0;
    qhead = 0;
    var_inc = 1.;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    learned = 0;
    restarts = 0;
  }

let nvars s = s.nvars

(* --- decision order heap --- *)

(* [a] is decided before [b]: higher activity, then lower index — the
   variable a linear scan for the strictly greatest activity picks *)
let before s a b =
  let x = s.activity.(a) and y = s.activity.(b) in
  x > y || (x = y && a < b)

let heap_set s i v =
  s.heap.(i) <- v;
  s.heap_pos.(v) <- i

let rec sift_up s i v =
  if i = 0 then heap_set s 0 v
  else
    let p = (i - 1) / 2 in
    let pv = s.heap.(p) in
    if before s v pv then begin
      heap_set s i pv;
      sift_up s p v
    end
    else heap_set s i v

let rec sift_down s i v =
  let l = (2 * i) + 1 in
  if l >= s.heap_size then heap_set s i v
  else
    let r = l + 1 in
    let c =
      if r < s.heap_size && before s s.heap.(r) s.heap.(l) then r else l
    in
    let cv = s.heap.(c) in
    if before s cv v then begin
      heap_set s i cv;
      sift_down s c v
    end
    else heap_set s i v

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap_size <- s.heap_size + 1;
    sift_up s (s.heap_size - 1) v
  end

(* the first unassigned variable in decision order, or 0 *)
let rec pick_branch_var s =
  if s.heap_size = 0 then 0
  else begin
    let v = s.heap.(0) in
    s.heap_pos.(v) <- -1;
    s.heap_size <- s.heap_size - 1;
    if s.heap_size > 0 then sift_down s 0 s.heap.(s.heap_size);
    if s.value.(2 * v) = 0 then v else pick_branch_var s
  end

let new_var s =
  let v = s.nvars + 1 in
  s.nvars <- v;
  if v >= Array.length s.level then begin
    let cap = max (2 * Array.length s.level) (v + 1) in
    s.level <- grow s.level cap 0;
    s.reason <- grow s.reason cap (-1);
    s.activity <- grow s.activity cap 0.;
    s.phase <- grow s.phase cap false;
    s.heap <- grow s.heap cap 0;
    s.heap_pos <- grow s.heap_pos cap (-1);
    s.seen <- grow s.seen cap false;
    s.lower <- grow s.lower cap 0;
    s.trail <- grow s.trail cap 0
  end;
  if 2 * (v + 1) >= Array.length s.watches then begin
    let cap = max (2 * Array.length s.watches) (2 * (v + 2)) in
    s.watches <- grow s.watches cap [||];
    s.nwatches <- grow s.nwatches cap 0;
    s.value <- grow s.value cap 0
  end;
  heap_insert s v;
  v

let decision_level s = s.trail_lim_size

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_size - 1 downto bound do
      let l = s.trail.(i) in
      let v = l lsr 1 in
      s.value.(l) <- 0;
      s.value.(l lxor 1) <- 0;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.trail_lim_size <- lvl
  end

let enqueue s lit reason =
  let v = lit lsr 1 in
  s.value.(lit) <- 1;
  s.value.(lit lxor 1) <- -1;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.phase.(v) <- lit land 1 = 0;
  s.trail.(s.trail_size) <- lit;
  s.trail_size <- s.trail_size + 1

(* store lits.(0 .. n - 1) as a clause; returns its reference *)
let push_clause s lits n =
  let c = s.arena_size in
  if c + n + 1 > Array.length s.arena then
    s.arena <- grow s.arena (max (2 * Array.length s.arena) (c + n + 1)) 0;
  s.arena.(c) <- n;
  for i = 0 to n - 1 do
    s.arena.(c + 1 + i) <- lits.(i)
  done;
  s.arena_size <- c + n + 1;
  s.nclauses <- s.nclauses + 1;
  c

let watch s p c =
  let n = s.nwatches.(p) in
  if n = Array.length s.watches.(p) then
    s.watches.(p) <- grow s.watches.(p) (max 4 (2 * n)) 0;
  s.watches.(p).(n) <- c;
  s.nwatches.(p) <- n + 1

let check_lit s fn l =
  let v = abs l in
  if v = 0 || v > s.nvars then
    invalid_arg (Printf.sprintf "Solver.%s: bad literal %d" fn l)

(* Shell sort, in place and allocation-free: on the two- and
   three-literal clauses bit-blasting produces it is an insertion sort *)
let sort_ascending a =
  let n = Array.length a in
  let gap = ref 1 in
  while !gap < n / 3 do
    gap := (3 * !gap) + 1
  done;
  while !gap > 0 do
    let g = !gap in
    for i = g to n - 1 do
      let x = a.(i) in
      let j = ref i in
      while !j >= g && a.(!j - g) > x do
        a.(!j) <- a.(!j - g);
        j := !j - g
      done;
      a.(!j) <- x
    done;
    gap := g / 3
  done

(* Add a problem clause: sorted ascending, duplicates and false literals
   removed, tautologies and satisfied clauses dropped.  Simplification
   against the assignment is only sound at decision level 0, so any
   leftover search state from a previous [solve] is backtracked first —
   this is what makes the incremental pattern (solve, add frame clauses,
   solve again) safe. *)
let add_clause s lits =
  cancel_until s 0;
  if s.ok then begin
    let a = Array.of_list lits in
    for i = 0 to Array.length a - 1 do
      check_lit s "add_clause" a.(i)
    done;
    sort_ascending a;
    (* compact the codes of the distinct unassigned literals into
       a.(0 .. n - 1); writes never pass reads *)
    let n = ref 0 and satisfied = ref false and prev = ref 0 in
    for i = 0 to Array.length a - 1 do
      let l = a.(i) in
      if l <> !prev then begin
        prev := l;
        let p = code l in
        match s.value.(p) with
        | 0 ->
            a.(!n) <- p;
            incr n
        | 1 -> satisfied := true
        | _ -> ()
      end
    done;
    (* two distinct literals on one variable make a tautology *)
    let n = !n and tautology = ref false in
    for i = 0 to n - 1 do
      let v = a.(i) lsr 1 in
      if s.seen.(v) then tautology := true else s.seen.(v) <- true
    done;
    for i = 0 to n - 1 do
      s.seen.(a.(i) lsr 1) <- false
    done;
    if not (!satisfied || !tautology) then
      if n = 0 then s.ok <- false
      else if n = 1 then enqueue s a.(0) (-1)
      else begin
        let c = push_clause s a n in
        watch s a.(0) c;
        watch s a.(1) c
      end
  end

(* Two-watched-literal unit propagation.  Returns the reference of a
   conflicting clause, or -1. *)
let propagate s =
  let conflict = ref (-1) in
  while !conflict < 0 && s.qhead < s.trail_size do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let falsified = p lxor 1 in
    let n = s.nwatches.(falsified) in
    if n > Array.length s.visiting then
      s.visiting <- Array.make (max n (2 * Array.length s.visiting)) 0;
    let visiting = s.visiting and ws = s.watches.(falsified)
    and arena = s.arena and value = s.value in
    Array.blit ws 0 visiting 0 n;
    (* survivors are rewritten into [ws] in visiting order; no other
       watcher joins this literal's vector meanwhile *)
    let kept = ref 0 in
    let i = ref (n - 1) in
    while !i >= 0 do
      let c = visiting.(!i) in
      decr i;
      (* the falsified watch goes to the second slot *)
      if arena.(c + 1) = falsified then begin
        arena.(c + 1) <- arena.(c + 2);
        arena.(c + 2) <- falsified
      end;
      let first = arena.(c + 1) in
      if value.(first) = 1 then begin
        ws.(!kept) <- c;
        incr kept
      end
      else begin
        (* look for a new watch *)
        let stop = c + arena.(c) + 1 in
        let k = ref (c + 3) in
        while !k < stop && value.(arena.(!k)) = -1 do
          incr k
        done;
        if !k < stop then begin
          let l = arena.(!k) in
          arena.(!k) <- arena.(c + 2);
          arena.(c + 2) <- l;
          watch s l c
        end
        else begin
          (* unit or conflicting *)
          ws.(!kept) <- c;
          incr kept;
          if value.(first) = -1 then begin
            (* conflict: keep the unvisited watchers and stop *)
            conflict := c;
            while !i >= 0 do
              ws.(!kept) <- visiting.(!i);
              incr kept;
              decr i
            done
          end
          else enqueue s first c
        end
      end
    done;
    s.nwatches.(falsified) <- !kept
  done;
  !conflict

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100;
    (* scaling can round distinct activities to one value, which hands
       the tie to the lower index: re-heapify *)
    for i = (s.heap_size / 2) - 1 downto 0 do
      sift_down s i s.heap.(i)
    done
  end
  else if s.heap_pos.(v) >= 0 then sift_up s s.heap_pos.(v) v

let var_decay s = s.var_inc <- s.var_inc /. 0.95

(* First-UIP conflict analysis.  Returns (learned clause, backjump level);
   learned.(0) is the asserting literal, the lower-level literals follow
   in reverse order of discovery. *)
let analyze s conflict =
  let lower = ref 0 in
  let counter = ref 0 in
  let p = ref 0 in
  (* 0 = start with whole conflict clause *)
  let c = ref conflict in
  let trail_pos = ref (s.trail_size - 1) in
  let asserting = ref 0 in
  let dl = decision_level s in
  while !asserting = 0 do
    let c0 = !c in
    for j = c0 + 1 to c0 + s.arena.(c0) do
      let q = s.arena.(j) in
      if q <> !p then begin
        let v = q lsr 1 in
        if (not s.seen.(v)) && s.level.(v) > 0 then begin
          s.seen.(v) <- true;
          var_bump s v;
          if s.level.(v) >= dl then incr counter
          else begin
            s.lower.(!lower) <- q;
            incr lower
          end
        end
      end
    done;
    (* pick next literal to expand from the trail *)
    let i = ref !trail_pos in
    while not s.seen.(s.trail.(!i) lsr 1) do
      decr i
    done;
    trail_pos := !i - 1;
    let lit = s.trail.(!i) in
    let v = lit lsr 1 in
    s.seen.(v) <- false;
    decr counter;
    if !counter = 0 then asserting := lit lxor 1
    else begin
      (* expand v's reason clause; skip the propagated literal itself *)
      p := lit;
      c := s.reason.(v)
    end
  done;
  let k = !lower in
  let learned = Array.make (k + 1) !asserting in
  let backjump = ref 0 in
  for j = 1 to k do
    let q = s.lower.(k - j) in
    learned.(j) <- q;
    s.seen.(q lsr 1) <- false;
    backjump := max !backjump s.level.(q lsr 1)
  done;
  (learned, !backjump)

let record_learned s lits =
  s.learned <- s.learned + 1;
  let n = Array.length lits in
  if n = 1 then enqueue s lits.(0) (-1)
  else begin
    (* watch the asserting literal and a highest-level literal *)
    let best = ref 1 in
    for i = 2 to n - 1 do
      if s.level.(lits.(i) lsr 1) > s.level.(lits.(!best) lsr 1) then best := i
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!best);
    lits.(!best) <- tmp;
    let c = push_clause s lits n in
    watch s lits.(0) c;
    watch s lits.(1) c;
    enqueue s lits.(0) c
  end

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let rec find k = if (1 lsl k) - 1 >= i then k else find (k + 1) in
  let k = find 1 in
  if (1 lsl k) - 1 = i then 1 lsl (k - 1)
  else luby (i - (1 lsl (k - 1)) + 1)

let new_level s =
  s.trail_lim.(s.trail_lim_size) <- s.trail_size;
  s.trail_lim_size <- s.trail_lim_size + 1

let solve_search assumptions gov s =
  (* the governor's conflict allowance caps the call; the deadline is
     polled at every conflict — conflicts are heavy enough that one
     clock read is noise *)
  let allowance =
    Option.value ~default:max_int
      (Option.bind gov Symbad_gov.Gov.conflicts_left)
  in
  let gov_out () =
    match gov with Some g -> Symbad_gov.Gov.out_of_budget g | None -> false
  in
  if gov_out () then Unknown
  else if not s.ok then Unsat
  else begin
    cancel_until s 0;
    if propagate s >= 0 then begin
      s.ok <- false;
      Unsat
    end
    else begin
      (* assumption [i] is assumed at level [i + 1] *)
      let nassumed = Array.length assumptions in
      let start_conflicts = s.conflicts in
      let restart_count = ref 0 in
      let conflicts_until_restart () = 100 * luby (!restart_count + 1) in
      let restart_limit = ref (conflicts_until_restart ()) in
      let conflicts_this_restart = ref 0 in
      let result = ref None in
      while Option.is_none !result do
        let conflict = propagate s in
        if conflict >= 0 then begin
          s.conflicts <- s.conflicts + 1;
          incr conflicts_this_restart;
          if decision_level s <= nassumed then begin
            (* conflict under assumptions only: unsat *)
            if decision_level s = 0 then s.ok <- false;
            result := Some Unsat
          end
          else begin
            let learned, backjump = analyze s conflict in
            cancel_until s (max backjump nassumed);
            record_learned s learned;
            var_decay s;
            if s.conflicts - start_conflicts >= allowance || gov_out () then
              result := Some Unknown
            else if !conflicts_this_restart >= !restart_limit then begin
              incr restart_count;
              s.restarts <- s.restarts + 1;
              conflicts_this_restart := 0;
              restart_limit := conflicts_until_restart ();
              cancel_until s nassumed
            end
          end
        end
        else begin
          let lvl = decision_level s in
          if lvl < nassumed then begin
            let a = assumptions.(lvl) in
            match s.value.(a) with
            | 1 ->
                (* already true: open an empty level to keep indices aligned *)
                new_level s
            | -1 -> result := Some Unsat
            | _ ->
                new_level s;
                enqueue s a (-1)
          end
          else begin
            let v = pick_branch_var s in
            if v = 0 then result := Some Sat
            else begin
              s.decisions <- s.decisions + 1;
              new_level s;
              enqueue s (code (if s.phase.(v) then v else -v)) (-1)
            end
          end
        end
      done;
      Option.get !result
    end
  end

let result_string = function Sat -> "sat" | Unsat -> "unsat" | Unknown -> "unknown"

(* Telemetry shell around the search: a span per [solve] call and the
   effort deltas (conflicts, propagations, restarts, ...) flushed to the
   metrics registry once the call returns.  The governor is charged the
   conflicts spent on every exit path, including exceptional ones. *)
let solve ?(assumptions = []) ?gov s =
  let module Obs = Symbad_obs.Obs in
  let module Json = Symbad_obs.Json in
  List.iter (check_lit s "solve") assumptions;
  let assumptions = Array.of_list (List.map code assumptions) in
  (* a level per assumption (already true ones too) and per decision *)
  let levels = s.nvars + Array.length assumptions
  and cap = Array.length s.trail_lim in
  if levels > cap then s.trail_lim <- grow s.trail_lim (max levels (2 * cap)) 0;
  let c_start = s.conflicts in
  let settle () =
    match gov with
    | Some g -> Symbad_gov.Gov.charge_conflicts g (s.conflicts - c_start)
    | None -> ()
  in
  let solve_search () =
    Fun.protect ~finally:settle (fun () -> solve_search assumptions gov s)
  in
  if not (Obs.enabled ()) then solve_search ()
  else begin
    let c0 = s.conflicts
    and p0 = s.propagations
    and d0 = s.decisions
    and r0 = s.restarts in
    let sp =
      Obs.begin_span ~cat:"sat"
        ~args:[ ("vars", Json.Int s.nvars); ("clauses", Json.Int s.nclauses) ]
        "sat.solve"
    in
    let finish result =
      (* through the facade: a solve inside a Par job flushes into the
         job's recorder, not the (foreign) global registry *)
      let flush name v = Obs.incr_counter ~by:v name in
      flush "sat.solves" 1;
      flush "sat.conflicts" (s.conflicts - c0);
      flush "sat.propagations" (s.propagations - p0);
      flush "sat.decisions" (s.decisions - d0);
      flush "sat.restarts" (s.restarts - r0);
      Obs.end_span
        ~args:
          [
            ("result", Json.Str (match result with
              | Some r -> result_string r
              | None -> "exception"));
            ("conflicts", Json.Int (s.conflicts - c0));
          ]
        sp
    in
    match solve_search () with
    | r ->
        finish (Some r);
        r
    | exception e ->
        finish None;
        raise e
  end

(* Model access: only meaningful right after [solve] returned [Sat]. *)
let model_value s v =
  if v < 1 || v > s.nvars then invalid_arg "Solver.model_value";
  s.value.(2 * v) = 1

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  learned : int;
  restarts : int;
}

let stats (s : t) =
  {
    conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
    learned = s.learned;
    restarts = s.restarts;
  }
