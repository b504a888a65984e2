(* The resource governor: a budget, live spend counters and a cancel
   token, organised as a tree.  Children are granted shares of the
   remaining budget; their charges propagate to every ancestor, so the
   parent's "remaining" always reflects what the whole subtree spent and
   unspent allowance flows forward to the next phase.

   Determinism contract: the logical allowances (conflicts, patterns)
   are split and spent by arithmetic only.  Each parallel job receives
   its share *before* the fan-out, so which job exhausts first does not
   depend on scheduling — parallel runs reproduce sequential ones.  The
   wall-clock deadline is inherently a race against real time and is
   polled best-effort at step boundaries. *)

module Obs = Symbad_obs.Obs
module Json = Symbad_obs.Json
module Severity = Symbad_obs.Severity

type t = {
  label : string;
  budget : Budget.t;
  cancel : Cancel.t;
  spent_conflicts : int Atomic.t;
  spent_patterns : int Atomic.t;
  parent : t option;
  ledger : Ledger.t option;  (* inherited root → children *)
}

let make ?(label = "gov") ?(cancel = Cancel.none) ?parent ?ledger budget =
  let ledger =
    match (ledger, parent) with
    | (Some _ as l), _ -> l
    | None, Some p -> p.ledger
    | None, None -> None
  in
  (match ledger with
  | Some l ->
      Ledger.record l ~node:label
        (Ledger.Created
           {
             parent = Option.map (fun p -> p.label) parent;
             conflicts = budget.Budget.conflicts;
             patterns = budget.Budget.patterns;
             deadline_s = Budget.remaining_s budget;
             retries = budget.Budget.retries;
           })
  | None -> ());
  {
    label;
    budget;
    cancel;
    spent_conflicts = Atomic.make 0;
    spent_patterns = Atomic.make 0;
    parent;
    ledger;
  }

let create ?label ?cancel ?ledger budget = make ?label ?cancel ?ledger budget
let unlimited = make ~label:"unlimited" Budget.unlimited
let get = function Some g -> g | None -> unlimited
let label t = t.label
let budget t = t.budget
let cancel_token t = t.cancel
let ledger t = t.ledger

(* --- spend accounting ------------------------------------------------- *)

let rec charge counter_of t n =
  if n > 0 then begin
    ignore (Atomic.fetch_and_add (counter_of t) n);
    match t.parent with Some p -> charge counter_of p n | None -> ()
  end

(* each charge is recorded once, on the directly-charged node (the
   atomic propagation handles the ancestors), so ledger sums equal the
   root's spend counters exactly *)
let note_charge t axis n =
  if n > 0 then
    match t.ledger with
    | Some l ->
        Ledger.record l ~node:t.label (Ledger.Charge { axis; amount = n })
    | None -> ()

let charge_conflicts t n =
  note_charge t Ledger.Conflicts n;
  charge (fun t -> t.spent_conflicts) t n

let charge_patterns t n =
  note_charge t Ledger.Patterns n;
  charge (fun t -> t.spent_patterns) t n

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
  if Cancel.is_cancelled t.cancel then Some Degrade.Cancelled
  else if conflicts_left t = Some 0 then Some Degrade.Conflicts
  else if patterns_left t = Some 0 then Some Degrade.Patterns
  else if Budget.deadline_over t.budget then Some Degrade.Deadline
  else None

let out_of_budget t = exhaustion t <> None

(* --- telemetry -------------------------------------------------------- *)

(* Obs routes these to the job's recorder when called inside a Par job
   (merged at the fan-in) and straight to the registry on the owning
   domain; the ledger records in parallel with its own lock. *)
let event ?(severity = Severity.Info) ~counter name args =
  if Obs.enabled () then begin
    Obs.incr_counter counter;
    Obs.event ~severity ~args name
  end

let opt_int = function None -> Json.Null | Some n -> Json.Int n

let note_degraded t ~what reason =
  (match t.ledger with
  | Some l ->
      Ledger.record l ~node:t.label
        (Ledger.Degraded { what; reason = Degrade.reason_string reason })
  | None -> ());
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
      make ~label:(Printf.sprintf "%s.%s/%d" t.label l i) ~cancel:t.cancel
        ~parent:t share)
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
  make ~label:(Printf.sprintf "%s.%s" t.label l) ~cancel:t.cancel ~parent:t
    share

(* --- portfolio retry -------------------------------------------------- *)

let with_retry ?label:(l = "engine") t ~inconclusive run =
  let rec go attempt =
    let r = run ~attempt in
    if inconclusive r && attempt < t.budget.Budget.retries
       && not (out_of_budget t)
    then begin
      (match t.ledger with
      | Some led ->
          Ledger.record led ~node:t.label
            (Ledger.Retry { what = l; attempt = attempt + 1 })
      | None -> ());
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

let pp fmt t =
  Fmt.pf fmt "%s: %a%a" t.label Budget.pp (remaining t)
    (fun fmt -> function
      | None -> ()
      | Some r -> Fmt.pf fmt " [%s]" (Degrade.reason_string r))
    (exhaustion t)
