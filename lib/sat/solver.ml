(* CDCL SAT solver (MiniSat architecture): two-watched-literal
   propagation, first-UIP clause learning, VSIDS-style activities with
   phase saving, and Luby restarts.  Literals are non-zero ints: [v] is
   the positive literal of variable [v >= 1], [-v] its negation. *)

type result = Sat | Unsat | Unknown

type clause = { mutable lits : int array; mutable active : bool }

type t = {
  mutable nvars : int;
  mutable clauses : clause array;
  mutable nclauses : int;
  (* watches.(lit_index l) = clause ids watching literal l *)
  mutable watches : int list array;
  (* value.(v) : 0 undef, 1 true, -1 false *)
  mutable value : int array;
  mutable level : int array;
  mutable reason : int array; (* clause id or -1 *)
  mutable activity : float array;
  mutable phase : bool array; (* saved polarity *)
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
  seen : (int, unit) Hashtbl.t;
}

let lit_index l = if l > 0 then 2 * l else (2 * -l) + 1

let create nvars =
  if nvars < 0 then invalid_arg "Solver.create: nvars";
  let n = nvars + 1 in
  {
    nvars;
    clauses = Array.make 16 { lits = [||]; active = false };
    nclauses = 0;
    watches = Array.make (2 * (n + 1)) [];
    value = Array.make n 0;
    level = Array.make n 0;
    reason = Array.make n (-1);
    activity = Array.make n 0.;
    phase = Array.make n false;
    trail = Array.make n 0;
    trail_size = 0;
    trail_lim = Array.make (n + 1) 0;
    trail_lim_size = 0;
    qhead = 0;
    var_inc = 1.;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    learned = 0;
    restarts = 0;
    seen = Hashtbl.create 64;
  }

let nvars s = s.nvars

let new_var s =
  let v = s.nvars + 1 in
  s.nvars <- v;
  let ensure_var n =
    if n >= Array.length s.value then begin
      let cap = max (2 * Array.length s.value) (n + 1) in
      let grow a fill =
        let b = Array.make cap fill in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      s.value <- grow s.value 0;
      s.level <- grow s.level 0;
      s.reason <- grow s.reason (-1);
      s.activity <- grow s.activity 0.;
      s.phase <- grow s.phase false;
      s.trail <- grow s.trail 0;
      let tl = Array.make (cap + 1) 0 in
      Array.blit s.trail_lim 0 tl 0 (Array.length s.trail_lim);
      s.trail_lim <- tl
    end;
    if 2 * (n + 1) >= Array.length s.watches then begin
      let w = Array.make (max (2 * Array.length s.watches) (2 * (n + 2))) [] in
      Array.blit s.watches 0 w 0 (Array.length s.watches);
      s.watches <- w
    end
  in
  ensure_var v;
  v

let value_lit s l = if l > 0 then s.value.(l) else -s.value.(-l)

let decision_level s = s.trail_lim_size

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_size - 1 downto bound do
      let v = abs s.trail.(i) in
      s.value.(v) <- 0;
      s.reason.(v) <- -1
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.trail_lim_size <- lvl
  end

let enqueue s lit reason =
  let v = abs lit in
  s.value.(v) <- (if lit > 0 then 1 else -1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.phase.(v) <- lit > 0;
  s.trail.(s.trail_size) <- lit;
  s.trail_size <- s.trail_size + 1

let push_clause s cl =
  if s.nclauses = Array.length s.clauses then begin
    let a = Array.make (2 * s.nclauses) cl in
    Array.blit s.clauses 0 a 0 s.nclauses;
    s.clauses <- a
  end;
  s.clauses.(s.nclauses) <- cl;
  s.nclauses <- s.nclauses + 1;
  s.nclauses - 1

let watch s lit cid =
  let i = lit_index lit in
  s.watches.(i) <- cid :: s.watches.(i)

(* Add a problem clause.  Simplifies out true/duplicate literals; detects
   tautologies.  Simplification against the assignment is only sound at
   decision level 0, so any leftover search state from a previous [solve]
   is backtracked first — this is what makes the incremental pattern
   (solve, add frame clauses, solve again) safe. *)
let add_clause s lits =
  cancel_until s 0;
  if s.ok then begin
    List.iter
      (fun l ->
        let v = abs l in
        if v = 0 || v > s.nvars then
          invalid_arg (Printf.sprintf "Solver.add_clause: bad literal %d" l))
      lits;
    let lits = List.sort_uniq compare lits in
    let tautology =
      List.exists (fun l -> List.mem (-l) lits) lits
      || List.exists (fun l -> value_lit s l = 1) lits
    in
    if not tautology then begin
      let lits = List.filter (fun l -> value_lit s l <> -1) lits in
      match lits with
      | [] -> s.ok <- false
      | [ l ] -> enqueue s l (-1)
      | l0 :: l1 :: _ ->
          let cl = { lits = Array.of_list lits; active = true } in
          let cid = push_clause s cl in
          watch s l0 cid;
          watch s l1 cid
    end
  end

exception Conflict of int

(* Two-watched-literal unit propagation.  Returns the id of a conflicting
   clause, or -1. *)
let propagate s =
  try
    while s.qhead < s.trail_size do
      let p = s.trail.(s.qhead) in
      s.qhead <- s.qhead + 1;
      s.propagations <- s.propagations + 1;
      let falsified = -p in
      let idx = lit_index falsified in
      let ws = s.watches.(idx) in
      s.watches.(idx) <- [];
      let rec go = function
        | [] -> ()
        | cid :: rest ->
            let cl = s.clauses.(cid) in
            let lits = cl.lits in
            (* ensure falsified watch is at position 1 *)
            if lits.(0) = falsified then begin
              lits.(0) <- lits.(1);
              lits.(1) <- falsified
            end;
            if value_lit s lits.(0) = 1 then begin
              (* clause satisfied; keep watching *)
              s.watches.(idx) <- cid :: s.watches.(idx);
              go rest
            end
            else begin
              (* look for a new watch *)
              let n = Array.length lits in
              let rec find k =
                if k >= n then -1
                else if value_lit s lits.(k) <> -1 then k
                else find (k + 1)
              in
              let k = find 2 in
              if k >= 0 then begin
                let tmp = lits.(1) in
                lits.(1) <- lits.(k);
                lits.(k) <- tmp;
                watch s lits.(1) cid;
                go rest
              end
              else begin
                (* unit or conflicting *)
                s.watches.(idx) <- cid :: s.watches.(idx);
                if value_lit s lits.(0) = -1 then begin
                  (* conflict: restore remaining watches and abort *)
                  List.iter
                    (fun c -> s.watches.(idx) <- c :: s.watches.(idx))
                    rest;
                  raise (Conflict cid)
                end
                else begin
                  enqueue s lits.(0) cid;
                  go rest
                end
              end
            end
      in
      go ws
    done;
    -1
  with Conflict cid -> cid

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end

let var_decay s = s.var_inc <- s.var_inc /. 0.95

(* First-UIP conflict analysis.  Returns (learned clause, backjump level);
   learned.(0) is the asserting literal. *)
let analyze s conflict_cid =
  Hashtbl.reset s.seen;
  let learned = ref [] in
  let counter = ref 0 in
  let p = ref 0 in
  (* 0 = start with whole conflict clause *)
  let cid = ref conflict_cid in
  let trail_pos = ref (s.trail_size - 1) in
  let asserting = ref 0 in
  let continue_loop = ref true in
  while !continue_loop do
    let cl = s.clauses.(!cid) in
    Array.iter
      (fun q ->
        if q <> !p then begin
          let v = abs q in
          if (not (Hashtbl.mem s.seen v)) && s.level.(v) > 0 then begin
            Hashtbl.add s.seen v ();
            var_bump s v;
            if s.level.(v) >= decision_level s then incr counter
            else learned := q :: !learned
          end
        end)
      cl.lits;
    (* pick next literal to expand from the trail *)
    let rec next_seen i =
      let v = abs s.trail.(i) in
      if Hashtbl.mem s.seen v then i else next_seen (i - 1)
    in
    let i = next_seen !trail_pos in
    trail_pos := i - 1;
    let lit = s.trail.(i) in
    let v = abs lit in
    Hashtbl.remove s.seen v;
    decr counter;
    if !counter = 0 then begin
      asserting := -lit;
      continue_loop := false
    end
    else begin
      (* expand v's reason clause; skip the propagated literal itself *)
      p := lit;
      cid := s.reason.(v)
    end
  done;
  let learned = !asserting :: !learned in
  let backjump =
    match learned with
    | [ _ ] -> 0
    | _ :: rest ->
        List.fold_left (fun acc l -> max acc s.level.(abs l)) 0 rest
    | [] -> 0
  in
  (Array.of_list learned, backjump)

let record_learned s lits =
  s.learned <- s.learned + 1;
  if Array.length lits = 1 then enqueue s lits.(0) (-1)
  else begin
    (* watch the asserting literal and a highest-level literal *)
    let best = ref 1 in
    for i = 2 to Array.length lits - 1 do
      if s.level.(abs lits.(i)) > s.level.(abs lits.(!best)) then best := i
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!best);
    lits.(!best) <- tmp;
    let cl = { lits; active = true } in
    let cid = push_clause s cl in
    watch s lits.(0) cid;
    watch s lits.(1) cid;
    enqueue s lits.(0) cid
  end

let pick_branch_var s =
  let best = ref 0 and best_act = ref neg_infinity in
  for v = 1 to s.nvars do
    if s.value.(v) = 0 && s.activity.(v) > !best_act then begin
      best := v;
      best_act := s.activity.(v)
    end
  done;
  !best

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let rec find k = if (1 lsl k) - 1 >= i then k else find (k + 1) in
  let k = find 1 in
  if (1 lsl k) - 1 = i then 1 lsl (k - 1)
  else luby (i - (1 lsl (k - 1)) + 1)

let solve_search ?(assumptions = []) ?gov s =
  (* the governor's conflict allowance caps the call; deadline and
     cancellation are polled at every conflict — conflicts are heavy
     enough that one clock read is noise *)
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
    let conflict0 = propagate s in
    if conflict0 >= 0 then begin
      s.ok <- false;
      Unsat
    end
    else begin
      let restart_count = ref 0 in
      let result = ref None in
      let budget () = s.conflicts in
      let start_conflicts = budget () in
      let conflicts_until_restart () = 100 * luby (!restart_count + 1) in
      let restart_limit = ref (conflicts_until_restart ()) in
      let conflicts_this_restart = ref 0 in
      (* assumption handling: assume in order at successive levels *)
      let rec search () =
        match !result with
        | Some _ -> ()
        | None ->
            let cid = propagate s in
            if cid >= 0 then begin
              s.conflicts <- s.conflicts + 1;
              incr conflicts_this_restart;
              if decision_level s <= List.length assumptions then begin
                (* conflict under assumptions only: unsat *)
                if decision_level s = 0 then s.ok <- false;
                result := Some Unsat
              end
              else begin
                let learned, backjump = analyze s cid in
                let backjump = max backjump (List.length assumptions) in
                cancel_until s backjump;
                record_learned s learned;
                var_decay s;
                if budget () - start_conflicts >= allowance || gov_out ()
                then result := Some Unknown
                else if !conflicts_this_restart >= !restart_limit then begin
                  incr restart_count;
                  s.restarts <- s.restarts + 1;
                  conflicts_this_restart := 0;
                  restart_limit := conflicts_until_restart ();
                  cancel_until s (List.length assumptions)
                end;
                search ()
              end
            end
            else begin
              (* decision *)
              let lvl = decision_level s in
              if lvl < List.length assumptions then begin
                let a = List.nth assumptions lvl in
                match value_lit s a with
                | 1 ->
                    (* already true: open an empty level to keep indices aligned *)
                    s.trail_lim.(s.trail_lim_size) <- s.trail_size;
                    s.trail_lim_size <- s.trail_lim_size + 1;
                    search ()
                | -1 -> result := Some Unsat
                | _ ->
                    s.trail_lim.(s.trail_lim_size) <- s.trail_size;
                    s.trail_lim_size <- s.trail_lim_size + 1;
                    enqueue s a (-1);
                    search ()
              end
              else begin
                let v = pick_branch_var s in
                if v = 0 then result := Some Sat
                else begin
                  s.decisions <- s.decisions + 1;
                  s.trail_lim.(s.trail_lim_size) <- s.trail_size;
                  s.trail_lim_size <- s.trail_lim_size + 1;
                  let lit = if s.phase.(v) then v else -v in
                  enqueue s lit (-1);
                  search ()
                end
              end
            end
      in
      search ();
      match !result with Some r -> r | None -> assert false
    end
  end

let result_string = function Sat -> "sat" | Unsat -> "unsat" | Unknown -> "unknown"

(* Telemetry shell around the search: a span per [solve] call and the
   effort deltas (conflicts, propagations, restarts, ...) flushed to the
   metrics registry once the call returns.  The governor is charged the
   conflicts spent on every exit path, including exceptional ones. *)
let solve ?assumptions ?gov s =
  let module Obs = Symbad_obs.Obs in
  let module Json = Symbad_obs.Json in
  let c_start = s.conflicts in
  let settle () =
    match gov with
    | Some g -> Symbad_gov.Gov.charge_conflicts g (s.conflicts - c_start)
    | None -> ()
  in
  let solve_search () =
    Fun.protect ~finally:settle (fun () -> solve_search ?assumptions ?gov s)
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
         job's buffer, not the (foreign) global registry *)
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
  s.value.(v) = 1

let model s = Array.init (s.nvars + 1) (fun v -> v >= 1 && s.value.(v) = 1)

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
