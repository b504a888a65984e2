(* The face DATABASE: feature vectors of the twenty enrolled identities,
   the reference set the WINNER stage matches a frame against. *)

type entry = { identity : int; features : int array }

type t = entry list

let create ~dim entries =
  List.iter
    (fun e ->
      if Array.length e.features <> dim then
        invalid_arg "Database.create: dimension mismatch")
    entries;
  entries

let entries db = db
let size db = List.length db
