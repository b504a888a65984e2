(* Petri-net abstraction of a SystemC communication structure.

   Tasks become transitions; channels become places from producer to
   consumer; a bounded channel additionally contributes a reverse
   "credit" place carrying its capacity.  The result for a dataflow
   design is a marked graph, on which the LPV analyses (deadlock via
   place invariants, unreachability via the state equation, timing via
   cycle ratios) are exact. *)

type place = { pname : string; m0 : int }

type transition = { delay : int }

type t = {
  mutable places : place array;
  mutable transitions : transition array;
  (* arcs of weight 1: (transition index, place index);
     pre = consumed by t, post = produced by t *)
  mutable pre : (int * int) list;
  mutable post : (int * int) list;
}

let create () =
  { places = [||]; transitions = [||]; pre = []; post = [] }

let add_place net ?(tokens = 0) pname =
  if tokens < 0 then invalid_arg "Petri.add_place: tokens";
  let p = { pname; m0 = tokens } in
  net.places <- Array.append net.places [| p |];
  Array.length net.places - 1

let add_transition net ?(delay = 0) () =
  let t = { delay } in
  net.transitions <- Array.append net.transitions [| t |];
  Array.length net.transitions - 1

let add_pre net ~transition ~place = net.pre <- (transition, place) :: net.pre

let add_post net ~transition ~place =
  net.post <- (transition, place) :: net.post

let n_places net = Array.length net.places
let n_transitions net = Array.length net.transitions
let place_name net i = net.places.(i).pname
let initial_marking net = Array.map (fun p -> p.m0) net.places
let delay net i = net.transitions.(i).delay

(* Incidence matrix C with C.(t).(p) = post(t,p) - pre(t,p). *)
let incidence net =
  let c =
    Array.init (n_transitions net) (fun _ -> Array.make (n_places net) 0)
  in
  List.iter (fun (t, p) -> c.(t).(p) <- c.(t).(p) - 1) net.pre;
  List.iter (fun (t, p) -> c.(t).(p) <- c.(t).(p) + 1) net.post;
  c

(* Producers/consumers of a place (for diagnostics and graph views). *)
let producers net p =
  List.filter_map (fun (t, p') -> if p' = p then Some t else None) net.post

let consumers net p =
  List.filter_map (fun (t, p') -> if p' = p then Some t else None) net.pre

(* State-equation reachability relaxation: M reachable from M0 only if
   the system  M = M0 + C^T x,  x >= 0  is feasible.  Infeasibility is a
   *proof* of unreachability — LPV's way of discharging "the deadlock
   state is unreachable" properties. *)
let state_equation_feasible net marking =
  if Array.length marking <> n_places net then
    invalid_arg "Petri.state_equation_feasible: marking size";
  let c = incidence net in
  let m0 = initial_marking net in
  let constraints =
    List.init (n_places net) (fun p ->
        {
          Simplex.coeffs =
            List.init (n_transitions net) (fun t -> (t, Rat.of_int c.(t).(p)))
            |> List.filter (fun (_, q) -> not (Rat.is_zero q));
          cmp = Simplex.Eq;
          rhs = Rat.of_int (marking.(p) - m0.(p));
        })
  in
  Simplex.feasible ~nvars:(n_transitions net) constraints

(* Structural boundedness: the net is bounded for every initial marking
   iff there is a place weighting y >= 1 with y C <= 0 (no transition can
   increase the weighted token count).  An LP feasibility question. *)
let structurally_bounded net =
  let np = n_places net and nt = n_transitions net in
  if np = 0 then true
  else begin
    let c = incidence net in
    let rows =
      (* y_p >= 1 for every place *)
      List.init np (fun p ->
          { Simplex.coeffs = [ (p, Rat.one) ]; cmp = Simplex.Ge; rhs = Rat.one })
      (* (y C)_t <= 0 for every transition *)
      @ List.init nt (fun t ->
            {
              Simplex.coeffs =
                List.init np (fun p -> (p, Rat.of_int c.(t).(p)))
                |> List.filter (fun (_, q) -> not (Rat.is_zero q));
              cmp = Simplex.Le;
              rhs = Rat.zero;
            })
    in
    Simplex.feasible ~nvars:np rows
  end
