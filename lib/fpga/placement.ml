(* Context-partition tuning.

   "The partition of algorithms and registers among the different
   configurations is an important architectural aspect which must be
   thoroughly tuned for obtaining optimal performances" — this module
   evaluates and optimises that partition: given the dynamic sequence of
   resource invocations, it counts the reconfigurations (and downloaded
   bytes) each candidate partition would cause, and searches exhaustively
   for the best one (the case study's resource sets are small). *)

type partition = Resource.t list list
(* groups of resources; each group becomes one context *)

let contexts_of_partition partition =
  List.mapi
    (fun i group -> Context.make (Printf.sprintf "config%d" (i + 1)) group)
    partition

(* Replay [calls] against a partition: every invocation of a resource not
   in the currently loaded context forces a reconfiguration. *)
let evaluate ~calls partition =
  let contexts = contexts_of_partition partition in
  let context_of resource =
    List.find_opt (fun c -> Context.provides c resource) contexts
  in
  let reconfigs = ref 0 in
  let bytes = ref 0 in
  let current = ref None in
  List.iter
    (fun resource ->
      match context_of resource with
      | None -> invalid_arg ("Placement.evaluate: unplaced " ^ resource)
      | Some ctx ->
          let loaded =
            match !current with
            | Some c -> String.equal (Context.name c) (Context.name ctx)
            | None -> false
          in
          if not loaded then begin
            incr reconfigs;
            bytes := !bytes + Context.bitstream_bytes ctx;
            current := Some ctx
          end)
    calls;
  (!reconfigs, !bytes)

(* All set partitions of [resources] into at most [max_contexts] groups
   whose areas fit in [capacity], via restricted-growth strings. *)
let feasible_partitions ~capacity ~max_contexts resources =
  let arr = Array.of_list resources in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let results = ref [] in
    let assignment = Array.make n 0 in
    (* restricted-growth strings: item [i] may join groups 0..max_used+1,
       so no group is ever left empty *)
    let rec enum i max_used =
      if i = n then begin
        let groups = Array.make (max_used + 1) [] in
        for j = n - 1 downto 0 do
          groups.(assignment.(j)) <- arr.(j) :: groups.(assignment.(j))
        done;
        let groups = Array.to_list groups in
        let fits g =
          List.fold_left (fun a r -> a + Resource.area r) 0 g <= capacity
        in
        if List.for_all fits groups then results := groups :: !results
      end
      else
        let limit = min (max_used + 1) (max_contexts - 1) in
        for g = 0 to limit do
          assignment.(i) <- g;
          enum (i + 1) (max g max_used)
        done
    in
    enum 0 (-1);
    !results
  end

type evaluation = {
  partition : partition;
  reconfigurations : int;
  bitstream_bytes : int;
}

module Obs = Symbad_obs.Obs
module Json = Symbad_obs.Json

(* Sweep progress goes through [symbad_obs] events — never stdout — so a
   parallel sweep cannot interleave progress text with other output; the
   events are emitted from the calling domain only. *)
let progress_event what ~completed ~total =
  Obs.event
    ~args:[ ("completed", Json.Int completed); ("total", Json.Int total) ]
    what

(* Replay one candidate per job of the sequential pool; evaluation is a
   pure fold over the call sequence. *)
let evaluate_all ~label ~calls candidates =
  Symbad_par.Par.map ~label
    ~progress:(progress_event label)
    (Symbad_par.Par.get None)
    (fun p ->
      let reconfigurations, bitstream_bytes = evaluate ~calls p in
      { partition = p; reconfigurations; bitstream_bytes })
    candidates

let best_partition ~capacity ~max_contexts ~calls resources =
  let candidates = feasible_partitions ~capacity ~max_contexts resources in
  match evaluate_all ~label:"placement.exhaustive" ~calls candidates with
  | [] -> None
  | first :: rest ->
      let better a b =
        a.reconfigurations < b.reconfigurations
        || (a.reconfigurations = b.reconfigurations
            && a.bitstream_bytes < b.bitstream_bytes)
      in
      Some (List.fold_left (fun acc e -> if better e acc then e else acc) first rest)

let sweep ~capacity ~max_contexts ~calls resources =
  feasible_partitions ~capacity ~max_contexts resources
  |> evaluate_all ~label:"placement.sweep" ~calls
  |> List.sort (fun a b ->
         compare
           (a.reconfigurations, a.bitstream_bytes)
           (b.reconfigurations, b.bitstream_bytes))

let pp_partition fmt p =
  let pp_group fmt g =
    Fmt.pf fmt "{%a}"
      (Fmt.list ~sep:(Fmt.any ",") Fmt.string)
      (List.map Resource.name g)
  in
  Fmt.pf fmt "[%a]" (Fmt.list ~sep:(Fmt.any " ") pp_group) p
