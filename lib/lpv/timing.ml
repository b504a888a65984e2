(* LPV real-time analysis.

   For a timed marked graph, the sustainable iteration period equals the
   maximum cycle ratio
       MCR = max over cycles (sum of delays / sum of tokens).
   [Cycle_ratio] finds it at the net's delays by a certified integer
   search.  This is the "timing deadline achievement" check; re-running
   it while shrinking channel capacities yields FIFO dimensioning. *)

type verdict =
  | Period of Rat.t  (* minimum sustainable iteration period *)
  | Unschedulable of string  (* a zero-token cycle: no finite period *)
  | Not_analyzable of string  (* budget exhausted, or an engine error *)

let min_cycle_ratio ?gov net =
  if Petri.n_transitions net = 0 then
    invalid_arg "Timing.min_cycle_ratio: no transitions";
  match Cycle_ratio.governed gov with
  | Some reason -> Not_analyzable reason
  | None -> (
      match Cycle_ratio.solve ~delay:(Petri.delay net) net with
      | Cycle_ratio.Ratio r -> Period r
      | Cycle_ratio.Token_free cycle ->
          Unschedulable
            (Printf.sprintf "zero-token cycle with positive delay through {%s}"
               (String.concat ", " (List.map (Petri.place_name net) cycle)))
      | Cycle_ratio.Engine_error reason -> Not_analyzable reason)

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
      match Cycle_ratio.governed gov with
      | Some _ -> None
      | None ->
          if deadline_met ?gov ~deadline (build c) then Some c else go (c + 1)
  in
  go 1

let pp_verdict fmt = function
  | Period p -> Fmt.pf fmt "period %a" Rat.pp p
  | Unschedulable why -> Fmt.pf fmt "unschedulable (%s)" why
  | Not_analyzable why -> Fmt.pf fmt "not analyzable (%s)" why
