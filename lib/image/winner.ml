(* WINNER: select the database entry with the smallest distance. *)

type verdict = Match of { identity : int; distance : int }

let select distances =
  (* [distances] : (identity, distance) list, non-empty *)
  match distances with
  | [] -> invalid_arg "Winner.select: no candidates"
  | first :: rest ->
      let best =
        List.fold_left
          (fun ((_, bd) as acc) ((_, d) as cand) ->
            if d < bd then cand else acc)
          first rest
      in
      let identity, distance = best in
      Match { identity; distance }

let pp fmt (Match { identity; distance }) =
  Fmt.pf fmt "match id=%d d=%d" identity distance

let work ~candidates = candidates
