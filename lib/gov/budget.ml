(* Resource budgets: the immutable description of what a verification
   run may consume.  Spend accounting lives in Gov; this module is pure
   arithmetic over the three axes (deadline, conflicts, patterns) plus
   the retry count.

   Invariant kept by every constructor: logical allowances are >= 0, so
   "Some 0" uniformly means "exhausted" and None means "unlimited". *)


type t = {
  deadline : float option;
  conflicts : int option;
  patterns : int option;
  retries : int;
}

let unlimited =
  { deadline = None; conflicts = None; patterns = None; retries = 0 }

let clamp = Option.map (fun n -> max 0 n)

let make ?deadline_s ?conflicts ?patterns ?(retries = 0) () =
  {
    deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s;
    conflicts = clamp conflicts;
    patterns = clamp patterns;
    retries = max 0 retries;
  }

let remaining_s t = Option.map (fun d -> d -. Unix.gettimeofday ()) t.deadline

let deadline_over t =
  match t.deadline with None -> false | Some d -> Unix.gettimeofday () >= d

(* Near-equal integer shares: the first [total mod n] shares get one
   extra unit, so the shares sum exactly to the allowance. *)
let share ~n ~i = function
  | None -> None
  | Some total -> Some ((total / n) + (if i < total mod n then 1 else 0))

let split ~n t =
  if n < 1 then invalid_arg "Budget.split: n must be >= 1";
  List.init n (fun i ->
      { t with
        conflicts = share ~n ~i t.conflicts;
        patterns = share ~n ~i t.patterns })

let slice ~fraction t =
  let f = Float.max 0. (Float.min 1. fraction) in
  let scale = Option.map (fun a -> int_of_float (float_of_int a *. f)) in
  {
    t with
    deadline =
      Option.map
        (fun d ->
          let now = Unix.gettimeofday () in
          now +. (Float.max 0. (d -. now) *. f))
        t.deadline;
    conflicts = scale t.conflicts;
    patterns = scale t.patterns;
  }
