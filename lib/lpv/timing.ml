(* LPV real-time analysis.

   For a timed marked graph, the sustainable iteration period equals the
   maximum cycle ratio
       MCR = max over cycles (sum of delays / sum of tokens).
   Its LP characterisation (Dellacherie et al.) is the specification:
   the period is the least r >= 0 for which start-time potentials s with
       s(consumer) - s(producer) + r * m(p) >= delay(producer)
   exist at every place p, i.e. for which no cycle is positive under the
   arc weights delay - r * m.  The engine searches r over cycle ratios in
   exact integers, and a separate pass checks its answer before it is
   returned.  This is the "timing deadline achievement" check; re-running
   it while shrinking channel capacities yields FIFO dimensioning. *)

module Gov = Symbad_gov.Gov
module Degrade = Symbad_gov.Degrade

type verdict =
  | Period of Rat.t  (* minimum sustainable iteration period *)
  | Unschedulable of string  (* a zero-token cycle: no finite period *)
  | Not_analyzable of string  (* budget exhausted, or an engine error *)

let governed gov =
  Option.map
    (fun r -> Printf.sprintf "governor: %s" (Degrade.reason_string r))
    (Gov.exhaustion (Gov.get gov))

(* One arc per (place, producer, consumer): a row of the LP. *)
type arc = { place : int; src : int; dst : int; delay : int; tokens : int }

let arcs_of net =
  let m0 = Petri.initial_marking net in
  List.init (Petri.n_places net) (fun place ->
      List.concat_map
        (fun src ->
          List.map
            (fun dst ->
              { place; src; dst; delay = Petri.delay net src; tokens = m0.(place) })
            (Petri.consumers net place))
        (Petri.producers net place))
  |> List.concat |> Array.of_list

(* With D = sum |delay| and M = sum tokens over the arcs, every ratio the
   search reaches is num/den with |num| <= D and den <= M, so a round
   moves a potential by at most 2·D·M and the n + 1 rounds keep every
   integer below 4·n·D·M.  [n·D·M <= max_int / 4] (D and M taken at
   least 1) thus keeps the search exact. *)
let limit = max_int / 4

let exceeds_bound n arcs =
  (* saturating at limit + 1; |min_int| is negative and saturates too *)
  let total f =
    Array.fold_left
      (fun acc a ->
        let x = f a in
        if x < 0 || x > limit - acc then limit + 1 else acc + x)
      0 arcs
  in
  let d = max 1 (total (fun a -> abs a.delay))
  and m = max 1 (total (fun a -> a.tokens)) in
  d > limit / n / m

(* What the search claims, for [certified] to check: the period r with
   potentials satisfying every arc at r and the last cycle found (ratio
   exactly r; none when r stayed 0), or a zero-token cycle of positive
   delay.  A cycle lists its arcs in order. *)
type answer =
  | Bounded of { r : Rat.t; potentials : int array; cycle : arc list }
  | Token_free of arc list

exception Engine_error of string

(* Start at r = 0.  Longest paths by Bellman–Ford relaxation from all-zero
   potentials (as [Sched_rules.wcrt_bound] bounds reconfiguration time)
   under the integer weights delay·den − num·tokens of r = num/den: a
   change in round n + 1 means a positive cycle, found by walking the
   predecessor arcs n steps into it.  Such a cycle either carries no
   tokens (no period) or has a ratio strictly above r, which becomes the
   next r.  A round without change makes r the period.  Each r is the
   ratio of a simple cycle and they strictly increase, so the search
   ends. *)
let search n arcs =
  let s = Array.make n 0 and pred = Array.make n (-1) in
  (* one round; returns a transition it raised, or -1 *)
  let relax ~num ~den =
    let raised = ref (-1) in
    Array.iteri
      (fun i a ->
        let v = s.(a.src) + ((a.delay * den) - (num * a.tokens)) in
        if v > s.(a.dst) then begin
          s.(a.dst) <- v;
          pred.(a.dst) <- i;
          raised := a.dst
        end)
      arcs;
    !raised
  in
  let pred_arc v =
    if pred.(v) < 0 then raise (Engine_error "predecessor walk left the graph");
    arcs.(pred.(v))
  in
  let cycle_through v =
    let rec back k v = if k = 0 then v else back (k - 1) (pred_arc v).src in
    let x = back n v in
    let rec collect k v acc =
      let a = pred_arc v in
      if a.src = x then a :: acc
      else if k = n then raise (Engine_error "predecessor walk found no cycle")
      else collect (k + 1) a.src (a :: acc)
    in
    collect 1 x []
  in
  let rec at r cycle =
    let num = Rat.num r and den = Rat.den r in
    Array.fill s 0 n 0;
    Array.fill pred 0 n (-1);
    let rec rounds k =
      let v = relax ~num ~den in
      if v < 0 then None else if k > n then Some v else rounds (k + 1)
    in
    match rounds 1 with
    | None -> Bounded { r; potentials = Array.copy s; cycle }
    | Some v ->
        let c = cycle_through v in
        let d = List.fold_left (fun acc a -> acc + a.delay) 0 c
        and m = List.fold_left (fun acc a -> acc + a.tokens) 0 c in
        if (d * den) - (num * m) <= 0 then
          raise (Engine_error "relaxation found a non-positive cycle")
        else if m = 0 then Token_free c
        else at (Rat.make d m) c
  in
  at Rat.zero []

(* The certificate check.  It re-reads every arc, delay and token count
   from [net], not from the search's arcs: the potentials must satisfy
   every place at r (no cycle's ratio exceeds r, none is token-free with
   positive delay), and the cycle must be a closed chain of the net's
   arcs whose ratio is exactly r (or r = 0, the LP's own bound, with no
   cycle); a token-free cycle must have positive delay. *)
let certified net answer =
  let m0 = Petri.initial_marking net in
  let closed cycle =
    cycle <> []
    && List.for_all
         (fun a ->
           List.mem a.src (Petri.producers net a.place)
           && List.mem a.dst (Petri.consumers net a.place))
         cycle
    && List.for_all2
         (fun a b -> a.dst = b.src)
         cycle
         (List.tl cycle @ [ List.hd cycle ])
  in
  let totals cycle =
    List.fold_left
      (fun (d, m) a -> (d + Petri.delay net a.src, m + m0.(a.place)))
      (0, 0) cycle
  in
  let failure why = Not_analyzable ("engine error: " ^ why) in
  match answer with
  | Bounded { r; potentials = s; cycle } ->
      let num = Rat.num r and den = Rat.den r in
      let satisfied p =
        List.for_all
          (fun u ->
            List.for_all
              (fun v -> s.(v) - s.(u) >= (Petri.delay net u * den) - (num * m0.(p)))
              (Petri.consumers net p))
          (Petri.producers net p)
      in
      let attained =
        match cycle with
        | [] -> num = 0
        | _ ->
            let d, m = totals cycle in
            closed cycle && m > 0 && d * den = num * m
      in
      if num < 0 then failure "negative period"
      else if not (List.for_all satisfied (List.init (Petri.n_places net) Fun.id))
      then failure "potentials violate a place"
      else if not attained then failure "no cycle attains the period"
      else Period r
  | Token_free cycle ->
      let d, m = totals cycle in
      if not (closed cycle && m = 0 && d > 0) then
        failure "no token-free cycle of positive delay"
      else
        (* in cycle order, from the lowest place index *)
        let first = List.fold_left (fun lo a -> min lo a.place) max_int cycle in
        let rec rotate = function
          | a :: rest when a.place <> first -> rotate (rest @ [ a ])
          | c -> c
        in
        Unschedulable
          (Printf.sprintf "zero-token cycle with positive delay through {%s}"
             (String.concat ", "
                (List.map (fun a -> Petri.place_name net a.place) (rotate cycle))))

let min_cycle_ratio ?gov net =
  let n = Petri.n_transitions net in
  if n = 0 then invalid_arg "Timing.min_cycle_ratio: no transitions";
  match governed gov with
  | Some reason -> Not_analyzable reason
  | None -> (
      let arcs = arcs_of net in
      if exceeds_bound n arcs then
        Not_analyzable "engine error: delays and tokens exceed the exact bound"
      else
        match search n arcs with
        | answer -> certified net answer
        | exception Engine_error why -> Not_analyzable ("engine error: " ^ why))

(* "Timing deadline achievement": can the system sustain one iteration
   every [deadline] time units?  A degraded (Not_analyzable) run is
   conservatively "not met". *)
let meets ~deadline = function
  | Period p -> Rat.(p <= of_int deadline)
  | Unschedulable _ | Not_analyzable _ -> false

let deadline_met ?gov ~deadline net = meets ~deadline (min_cycle_ratio ?gov net)

(* FIFO channel dimensioning: smallest uniform capacity (over a monotone
   family of nets built by [build]) that meets the deadline.  The period
   is non-increasing in capacity, so linear search from 1 terminates at
   the optimum.  The governor is polled per candidate capacity (one
   search each); exhaustion stops the search with None. *)
let max_capacity = 64

let min_uniform_capacity ?gov ~deadline ~build () =
  let rec go c =
    if c > max_capacity then None
    else
      match governed gov with
      | Some _ -> None
      | None ->
          if deadline_met ?gov ~deadline (build c) then Some c else go (c + 1)
  in
  go 1

let pp_verdict fmt = function
  | Period p -> Fmt.pf fmt "period %a" Rat.pp p
  | Unschedulable why -> Fmt.pf fmt "unschedulable (%s)" why
  | Not_analyzable why -> Fmt.pf fmt "not analyzable (%s)" why
