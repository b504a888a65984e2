(* WINNER: select the database entry with the smallest distance, with a
   rejection threshold for unknown faces. *)

type verdict =
  | Match of { identity : int; distance : int }
  | Unknown of { best_identity : int; distance : int }

let select ?(reject_above = max_int) distances =
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
      if distance <= reject_above then Match { identity; distance }
      else Unknown { best_identity = identity; distance }

let pp fmt = function
  | Match { identity; distance } ->
      Fmt.pf fmt "match id=%d d=%d" identity distance
  | Unknown { best_identity; distance } ->
      Fmt.pf fmt "unknown (closest id=%d d=%d)" best_identity distance

let work ~candidates = candidates
