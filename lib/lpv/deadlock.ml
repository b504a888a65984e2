(* LPV deadlock-freeness.

   For (strongly connected) marked graphs, the live/deadlock question is
   exactly "does every directed cycle carry a token?".  The paper's LP
   minimises the initial token count over the place-invariant cone,
   whose extreme rays are the cycles: its optimum is the least
   tokens/places over the cycles, and a zero optimum's support is a
   token-free cycle.  [Cycle_ratio] answers the same question at unit
   delays, where a cycle's ratio is places/tokens:
     ratio r > 0      =>  every cycle is marked: deadlock-free, with
                          minimum cycle tokens 1/r;
     ratio 0          =>  no cycle at all;
     token-free cycle =>  an unfireable cycle, i.e. a deadlock witness. *)

type verdict =
  | Deadlock_free of { min_cycle_tokens : Rat.t }
  | Potential_deadlock of { witness : string list }
      (* token-free cycle: its places in place-index order *)
  | Not_analyzable of string

let check ?gov net =
  if Petri.n_places net = 0 || Petri.n_transitions net = 0 then
    Not_analyzable "empty net"
  else
    match Cycle_ratio.governed gov with
    | Some reason -> Not_analyzable reason
    | None -> (
        match Cycle_ratio.solve ~delay:(fun _ -> 1) net with
        | Cycle_ratio.Ratio r when Rat.is_zero r ->
            Deadlock_free { min_cycle_tokens = Rat.of_int max_int }
        | Cycle_ratio.Ratio r -> Deadlock_free { min_cycle_tokens = Rat.inv r }
        | Cycle_ratio.Token_free cycle ->
            let places = List.sort_uniq compare cycle in
            Potential_deadlock { witness = List.map (Petri.place_name net) places }
        | Cycle_ratio.Engine_error reason -> Not_analyzable reason)

let pp_verdict fmt = function
  | Deadlock_free { min_cycle_tokens } ->
      Fmt.pf fmt "deadlock-free (min cycle tokens %a)" Rat.pp min_cycle_tokens
  | Potential_deadlock { witness } ->
      Fmt.pf fmt "POTENTIAL DEADLOCK: token-free cycle through {%a}"
        (Fmt.list ~sep:Fmt.comma Fmt.string)
        witness
  | Not_analyzable msg -> Fmt.pf fmt "not analyzable: %s" msg
