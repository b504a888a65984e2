(* The maximum cycle ratio of a marked graph.

   Its LP characterisation (Dellacherie et al.) is the specification:
   the ratio is the least r >= 0 for which start-time potentials s with
       s(consumer) - s(producer) + r * m(p) >= delay(producer)
   exist at every place p, i.e. for which no cycle is positive under the
   arc weights delay - r * m.  The engine searches r over cycle ratios in
   exact integers, and a separate pass checks its answer before it is
   returned.  Timing reads r at the net's delays as the iteration
   period; Deadlock reads it at unit delays, where a cycle's ratio is its
   length over its tokens, so a token-free cycle is a deadlock and 1/r
   the minimum token count per place of a cycle. *)

type answer =
  | Ratio of Rat.t
  | Token_free of int list  (* places in cycle order, lowest first *)
  | Engine_error of string

let governed gov =
  Option.map
    (fun r ->
      Printf.sprintf "governor: %s" (Symbad_gov.Degrade.reason_string r))
    (Symbad_gov.Gov.exhaustion (Symbad_gov.Gov.get gov))

(* One arc per (place, producer, consumer): a row of the LP. *)
type arc = { place : int; src : int; dst : int; delay : int; tokens : int }

let arcs_of ~delay net =
  let m0 = Petri.initial_marking net in
  List.init (Petri.n_places net) (fun place ->
      List.concat_map
        (fun src ->
          List.map
            (fun dst ->
              { place; src; dst; delay = delay src; tokens = m0.(place) })
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

(* What the search claims, for [certified] to check: the ratio r with
   potentials satisfying every arc at r and the last cycle found (ratio
   exactly r; none when r stayed 0), or a zero-token cycle of positive
   delay.  A cycle lists its arcs in order. *)
type claim =
  | Bounded of { r : Rat.t; potentials : int array; cycle : arc list }
  | Unmarked of arc list

exception Search_failed of string

let engine_error why = Engine_error ("engine error: " ^ why)

(* Start at r = 0.  Longest paths by Bellman–Ford relaxation from all-zero
   potentials (as [Sched_rules.wcrt_bound] bounds reconfiguration time)
   under the integer weights delay·den − num·tokens of r = num/den: a
   change in round n + 1 means a positive cycle, found by walking the
   predecessor arcs n steps into it.  Such a cycle either carries no
   tokens (no finite ratio) or has a ratio strictly above r, which
   becomes the next r.  A round without change makes r the answer.  Each
   r is the ratio of a simple cycle and they strictly increase, so the
   search ends. *)
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
    if pred.(v) < 0 then raise (Search_failed "predecessor walk left the graph");
    arcs.(pred.(v))
  in
  let cycle_through v =
    let rec back k v = if k = 0 then v else back (k - 1) (pred_arc v).src in
    let x = back n v in
    let rec collect k v acc =
      let a = pred_arc v in
      if a.src = x then a :: acc
      else if k = n then raise (Search_failed "predecessor walk found no cycle")
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
          raise (Search_failed "relaxation found a non-positive cycle")
        else if m = 0 then Unmarked c
        else at (Rat.make d m) c
  in
  at Rat.zero []

(* The certificate check.  It re-reads every arc, delay and token count
   from [net] and [delay], not from the search's arcs: the potentials
   must satisfy every place at r (no cycle's ratio exceeds r, none is
   token-free with positive delay), and the cycle must be a closed chain
   of the net's arcs whose ratio is exactly r (or r = 0, the LP's own
   bound, with no cycle); a token-free cycle must have positive
   delay. *)
let certified ~delay net claim =
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
      (fun (d, m) a -> (d + delay a.src, m + m0.(a.place)))
      (0, 0) cycle
  in
  match claim with
  | Bounded { r; potentials = s; cycle } ->
      let num = Rat.num r and den = Rat.den r in
      let satisfied p =
        List.for_all
          (fun u ->
            List.for_all
              (fun v -> s.(v) - s.(u) >= (delay u * den) - (num * m0.(p)))
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
      if num < 0 then engine_error "negative ratio"
      else if not (List.for_all satisfied (List.init (Petri.n_places net) Fun.id))
      then engine_error "potentials violate a place"
      else if not attained then engine_error "no cycle attains the ratio"
      else Ratio r
  | Unmarked cycle ->
      let d, m = totals cycle in
      if not (closed cycle && m = 0 && d > 0) then
        engine_error "no token-free cycle of positive delay"
      else
        let first = List.fold_left (fun lo a -> min lo a.place) max_int cycle in
        let rec rotate = function
          | a :: rest when a.place <> first -> rotate (rest @ [ a ])
          | c -> c
        in
        Token_free (List.map (fun a -> a.place) (rotate cycle))

let solve ~delay net =
  let n = Petri.n_transitions net in
  let arcs = arcs_of ~delay net in
  if exceeds_bound n arcs then
    engine_error "delays and tokens exceed the exact bound"
  else
    match search n arcs with
    | claim -> certified ~delay net claim
    | exception Search_failed why -> engine_error why
