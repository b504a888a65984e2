(* LPV real-time analysis.

   For a timed marked graph, the sustainable iteration period equals the
   maximum cycle ratio
       MCR = max over cycles (sum of delays / sum of tokens),
   and "period r is sustainable" has the exact LP characterisation: there
   exist start-time potentials s with
       s(consumer) - s(producer) + r * m(p) >= delay(producer)
   for every place p.  Minimising r over that system yields the MCR in
   one LP — the "timing deadline achievement" check; re-running it while
   shrinking channel capacities yields FIFO dimensioning. *)

module Gov = Symbad_gov.Gov
module Degrade = Symbad_gov.Degrade

type verdict =
  | Period of Rat.t  (* minimum sustainable iteration period *)
  | Unschedulable of string  (* a zero-token cycle: no finite period *)
  | Not_analyzable of string  (* resource budget exhausted *)

let governed gov =
  Option.map
    (fun r -> Printf.sprintf "governor: %s" (Degrade.reason_string r))
    (Gov.exhaustion (Gov.get gov))

(* Minimum cycle ratio LP.  Variables: s+^t, s-^t per transition (free
   potential split into nonnegative parts) and r (last). *)
let min_cycle_ratio ?gov net =
  let nt = Petri.n_transitions net and np = Petri.n_places net in
  if nt = 0 then invalid_arg "Timing.min_cycle_ratio: no transitions";
  match governed gov with
  | Some reason -> Not_analyzable reason
  | None ->
  let sp t = t and sm t = nt + t in
  let r_var = 2 * nt in
  let nvars = (2 * nt) + 1 in
  let m0 = Petri.initial_marking net in
  let constraints = ref [] in
  for p = 0 to np - 1 do
    List.iter
      (fun producer ->
        List.iter
          (fun consumer ->
            let d = Petri.delay net producer in
            constraints :=
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
                rhs = Rat.of_int d;
              }
              :: !constraints)
          (Petri.consumers net p))
      (Petri.producers net p)
  done;
  match
    Simplex.solve
      {
        nvars;
        constraints = !constraints;
        objective = [ (r_var, Rat.one) ];
        minimize = true;
      }
  with
  | Simplex.Optimal { value; _ } -> Period value
  | Simplex.Infeasible ->
      Unschedulable "zero-token cycle with positive delay"
  | Simplex.Unbounded -> Period Rat.zero

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
   the optimum.  The governor is polled per candidate capacity (one LP
   each); exhaustion stops the search with None. *)
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
