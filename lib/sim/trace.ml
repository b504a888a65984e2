(* Trace files.  Level-1 verification in the paper is "match of results
   consists of trace files comparison"; this module records (time, source,
   label, value) tuples and implements that comparison. *)

type entry = { time : Time.t; source : string; label : string; value : string }

type t = { mutable entries : entry list; mutable count : int }

let create () = { entries = []; count = 0 }

let record t ~time ~source ~label value =
  t.entries <- { time; source; label; value } :: t.entries;
  t.count <- t.count + 1

let entries t = List.rev t.entries
let length t = t.count

(* Data-consistent comparison: the TL model "captures data consistently to
   the reference one", so we compare the *sequence of values* per
   (source, label) stream, ignoring timestamps (untimed vs timed models
   produce the same data at different times). *)
let stream_of t ~source ~label =
  List.filter_map
    (fun e ->
      if String.equal e.source source && String.equal e.label label then
        Some e.value
      else None)
    (entries t)

let sources t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let key = (e.source, e.label) in
      if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key ())
    (entries t);
  Hashtbl.fold (fun k () acc -> k :: acc) tbl []
  |> List.sort compare

type mismatch = {
  source : string;
  label : string;
  index : int;
  expected : string option;
  actual : string option;
}

let compare_data ~reference ~actual =
  let keys =
    List.sort_uniq compare (sources reference @ sources actual)
  in
  let mismatches = ref [] in
  let compare_stream (source, label) =
    let ref_stream = stream_of reference ~source ~label in
    let act_stream = stream_of actual ~source ~label in
    let rec walk i = function
      | [], [] -> ()
      | e :: es, a :: as_ ->
          if not (String.equal e a) then
            mismatches :=
              { source; label; index = i; expected = Some e; actual = Some a }
              :: !mismatches;
          walk (i + 1) (es, as_)
      | e :: es, [] ->
          mismatches :=
            { source; label; index = i; expected = Some e; actual = None }
            :: !mismatches;
          walk (i + 1) (es, [])
      | [], a :: as_ ->
          mismatches :=
            { source; label; index = i; expected = None; actual = Some a }
            :: !mismatches;
          walk (i + 1) ([], as_)
    in
    walk 0 (ref_stream, act_stream)
  in
  List.iter compare_stream keys;
  List.rev !mismatches

let equal_data ~reference ~actual =
  match compare_data ~reference ~actual with [] -> true | _ :: _ -> false

let pp fmt t =
  List.iter
    (fun e ->
      Fmt.pf fmt "%a %s.%s = %s@." Time.pp e.time e.source e.label e.value)
    (entries t)
