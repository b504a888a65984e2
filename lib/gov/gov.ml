(* The resource governor: a budget and live spend counters, organised
   as a tree.  Children are granted shares of the
   remaining budget; their charges propagate to every ancestor, so the
   parent's "remaining" always reflects what the whole subtree spent and
   unspent allowance flows forward to the next phase.

   Determinism contract: the logical allowances (conflicts, patterns)
   are split and spent by arithmetic only.  Each parallel job receives
   its share *before* the fan-out, so which job exhausts first does not
   depend on scheduling — parallel runs reproduce sequential ones.  The
   wall-clock deadline is inherently a race against real time and is
   polled best-effort at step boundaries.

   The tree is also the run's budget record: each node keeps its
   children, retries and degradations, and [waterfall] reads the spend
   of every node back out of the same counters that enforce it. *)

module Obs = Symbad_obs.Obs
module Json = Symbad_obs.Json
module Severity = Symbad_obs.Severity

type t = {
  label : string;
  budget : Budget.t;
  deadline_s : float option;  (* seconds to the deadline at creation *)
  spent_conflicts : int Atomic.t;
  spent_patterns : int Atomic.t;
  parent : t option;
  children : t list Atomic.t;  (* newest first *)
  retries : int Atomic.t;
  degradations : string list Atomic.t;  (* reason strings, newest first *)
}

let node ~label ~parent budget =
  {
    label;
    budget;
    deadline_s = Budget.remaining_s budget;
    spent_conflicts = Atomic.make 0;
    spent_patterns = Atomic.make 0;
    parent;
    children = Atomic.make [];
    retries = Atomic.make 0;
    degradations = Atomic.make [];
  }

let create ?(label = "gov") budget = node ~label ~parent:None budget

let unlimited = create ~label:"unlimited" Budget.unlimited
let get = function Some g -> g | None -> unlimited
let budget t = t.budget

(* lock-free prepend: children and degradations arrive from any domain *)
let rec push cell x =
  let l = Atomic.get cell in
  if not (Atomic.compare_and_set cell l (x :: l)) then push cell x

(* the shared [unlimited] keeps no children, so ungoverned runs leave
   nothing reachable from it *)
let child t ~label budget =
  let c = node ~label ~parent:(Some t) budget in
  if t != unlimited then push t.children c;
  c

(* --- spend accounting ------------------------------------------------- *)

let rec charge counter_of t n =
  if n > 0 then begin
    ignore (Atomic.fetch_and_add (counter_of t) n);
    match t.parent with Some p -> charge counter_of p n | None -> ()
  end

let charge_conflicts t n = charge (fun t -> t.spent_conflicts) t n
let charge_patterns t n = charge (fun t -> t.spent_patterns) t n

let spent_conflicts t = Atomic.get t.spent_conflicts
let spent_patterns t = Atomic.get t.spent_patterns

let left allowance spent =
  Option.map (fun a -> max 0 (a - Atomic.get spent)) allowance

let conflicts_left t = left t.budget.Budget.conflicts t.spent_conflicts
let patterns_left t = left t.budget.Budget.patterns t.spent_patterns

let remaining t =
  { t.budget with
    Budget.conflicts = conflicts_left t;
    patterns = patterns_left t }

(* --- exhaustion ------------------------------------------------------- *)

let exhaustion t =
  if conflicts_left t = Some 0 then Some Degrade.Conflicts
  else if patterns_left t = Some 0 then Some Degrade.Patterns
  else if Budget.deadline_over t.budget then Some Degrade.Deadline
  else None

let out_of_budget t = exhaustion t <> None

(* --- telemetry -------------------------------------------------------- *)

(* Obs routes these to the job's recorder when called inside a Par job
   (merged at the fan-in) and straight to the registry on the owning
   domain. *)
let event ?(severity = Severity.Info) ~counter name args =
  if Obs.enabled () then begin
    Obs.incr_counter counter;
    Obs.event ~severity ~args name
  end

let opt_int = function None -> Json.Null | Some n -> Json.Int n

let note_degraded t ~what reason =
  push t.degradations (Degrade.reason_string reason);
  event ~severity:Severity.Warn ~counter:"gov.degradations" "gov.degrade"
    [
      ("gov", Json.Str t.label);
      ("what", Json.Str what);
      ("reason", Json.Str (Degrade.reason_string reason));
    ]

(* --- hierarchy -------------------------------------------------------- *)

let split ?label:(l = "split") t n =
  let rem = remaining t in
  event ~counter:"gov.splits" "gov.split"
    [
      ("gov", Json.Str t.label);
      ("into", Json.Str l);
      ("shares", Json.Int n);
      ("conflicts_left", opt_int rem.Budget.conflicts);
      ("patterns_left", opt_int rem.Budget.patterns);
    ];
  List.mapi
    (fun i share ->
      child t ~label:(Printf.sprintf "%s.%s/%d" t.label l i) share)
    (Budget.split ~n rem)

let slice ?label:(l = "slice") ~fraction t =
  let share = Budget.slice ~fraction (remaining t) in
  event ~counter:"gov.splits" "gov.split"
    [
      ("gov", Json.Str t.label);
      ("into", Json.Str l);
      ("fraction", Json.Float fraction);
      ("conflicts_left", opt_int share.Budget.conflicts);
      ("patterns_left", opt_int share.Budget.patterns);
    ];
  child t ~label:(Printf.sprintf "%s.%s" t.label l) share

(* --- portfolio retry -------------------------------------------------- *)

let with_retry ?label:(l = "engine") t ~inconclusive run =
  let rec go attempt =
    let r = run ~attempt in
    if inconclusive r && attempt < t.budget.Budget.retries
       && not (out_of_budget t)
    then begin
      Atomic.incr t.retries;
      event ~counter:"gov.retries" "gov.retry"
        [
          ("gov", Json.Str t.label);
          ("what", Json.Str l);
          ("attempt", Json.Int (attempt + 1));
        ];
      go (attempt + 1)
    end
    else r
  in
  go 0

(* --- the budget waterfall ---------------------------------------------- *)

type row = {
  label : string;
  parent : string option;
  depth : int;
  created : int;
  granted_conflicts : int option;
  granted_patterns : int option;
  granted_deadline_s : float option;
  granted_retries : int;
  charged_conflicts : int;
  charged_patterns : int;
  subtree_conflicts : int;
  subtree_patterns : int;
  retries : int;
  degradations : string list;
}

(* Consecutive runs of one label in a label-sorted list.  A label is
   created more than once when an engine is called repeatedly under one
   parent (retries, windows); its nodes make one row. *)
let rec by_label = function
  | [] -> []
  | (n : t) :: _ as ns ->
      let rec take acc = function
        | (m : t) :: rest when String.equal m.label n.label ->
            take (m :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let same, rest = take [] ns in
      same :: by_label rest

(* A row's own charge is its nodes' spend minus their children's:
   charges propagate to every ancestor, and every child of a retaining
   node is registered. *)
let waterfall (root : t) =
  let total f (ns : t list) =
    List.fold_left (fun acc n -> acc + Atomic.get (f n)) 0 ns
  in
  let conflicts = total (fun n -> n.spent_conflicts)
  and patterns = total (fun n -> n.spent_patterns) in
  let grant f (ns : t list) =
    List.fold_left
      (fun acc n ->
        match (acc, f n.budget) with Some a, Some b -> Some (a + b) | _ -> None)
      (Some 0) ns
  in
  let rec rows ~parent depth (nodes : t list) =
    let kids =
      List.concat_map (fun n -> List.rev (Atomic.get n.children)) nodes
      |> List.stable_sort (fun (a : t) b -> String.compare a.label b.label)
    in
    let label = (List.hd nodes).label in
    {
      label;
      parent;
      depth;
      created = List.length nodes;
      granted_conflicts = grant (fun b -> b.Budget.conflicts) nodes;
      granted_patterns = grant (fun b -> b.Budget.patterns) nodes;
      granted_deadline_s = List.find_map (fun n -> n.deadline_s) nodes;
      granted_retries =
        List.fold_left (fun acc n -> max acc n.budget.Budget.retries) 0 nodes;
      charged_conflicts = conflicts nodes - conflicts kids;
      charged_patterns = patterns nodes - patterns kids;
      subtree_conflicts = conflicts nodes;
      subtree_patterns = patterns nodes;
      retries = total (fun n -> n.retries) nodes;
      degradations =
        List.sort_uniq String.compare
          (List.concat_map (fun (n : t) -> Atomic.get n.degradations) nodes);
    }
    :: List.concat_map (rows ~parent:(Some label) (depth + 1)) (by_label kids)
  in
  rows ~parent:(Option.map (fun (p : t) -> p.label) root.parent) 0 [ root ]
