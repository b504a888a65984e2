(* Petri-net abstraction of a SystemC communication structure.

   Tasks become transitions; channels become places from producer to
   consumer; a bounded channel additionally contributes a reverse
   "credit" place carrying its capacity.  The result for a dataflow
   design is a marked graph, on which the LPV analyses (deadlock and
   timing, both read from its cycle ratios) are exact. *)

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

(* Producers/consumers of a place: the arcs the cycle search reads. *)
let producers net p =
  List.filter_map (fun (t, p') -> if p' = p then Some t else None) net.post

let consumers net p =
  List.filter_map (fun (t, p') -> if p' = p then Some t else None) net.pre
