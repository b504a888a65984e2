(* The face DATABASE: feature vectors of the twenty enrolled identities,
   with (de)serialisation so the level-2/3 models can keep it in the
   bus-attached nonvolatile memory model. *)

type entry = { identity : int; features : int array }

type t = { dim : int; entries : entry list }

let create ~dim entries =
  List.iter
    (fun e ->
      if Array.length e.features <> dim then
        invalid_arg "Database.create: dimension mismatch")
    entries;
  { dim; entries }

let entries db = db.entries
let size db = List.length db.entries

(* Serialisation: 16-bit little-endian header (dim, count) then per entry
   a 16-bit identity and [dim] 16-bit feature components. *)
let put16 buf pos v =
  Bytes.set buf pos (Char.chr (v land 0xff));
  Bytes.set buf (pos + 1) (Char.chr ((v lsr 8) land 0xff))

let get16 buf pos =
  Char.code (Bytes.get buf pos) lor (Char.code (Bytes.get buf (pos + 1)) lsl 8)

let serialized_size db = 4 + (size db * 2 * (db.dim + 1))

let serialize db =
  let buf = Bytes.make (serialized_size db) '\000' in
  put16 buf 0 db.dim;
  put16 buf 2 (size db);
  List.iteri
    (fun i e ->
      let base = 4 + (i * 2 * (db.dim + 1)) in
      put16 buf base e.identity;
      Array.iteri (fun j v -> put16 buf (base + 2 + (2 * j)) (v land 0xffff))
        e.features)
    db.entries;
  buf

let deserialize buf =
  if Bytes.length buf < 4 then invalid_arg "Database.deserialize: short";
  let dim = get16 buf 0 and count = get16 buf 2 in
  let need = 4 + (count * 2 * (dim + 1)) in
  if Bytes.length buf < need then invalid_arg "Database.deserialize: truncated";
  let entries =
    List.init count (fun i ->
        let base = 4 + (i * 2 * (dim + 1)) in
        {
          identity = get16 buf base;
          features = Array.init dim (fun j -> get16 buf (base + 2 + (2 * j)));
        })
  in
  { dim; entries }

let equal a b =
  a.dim = b.dim
  && List.length a.entries = List.length b.entries
  && List.for_all2
       (fun x y -> x.identity = y.identity && x.features = y.features)
       a.entries b.entries
