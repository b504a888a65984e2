module Json = Symbad_obs.Json

type span = {
  id : int;
  name : string;
  parent : int option;
  op : int;
  start_ns : int;
  end_ns : int;
}

type t = { mutable closed : span list; mutable open_ : int list; mutable next : int }

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let create () = { closed = []; open_ = []; next = 0 }

let span t ~op name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> Some p | [] -> None in
  t.open_ <- id :: t.open_;
  let start_ns = now_ns () in
  Fun.protect f ~finally:(fun () ->
      t.open_ <- List.tl t.open_;
      t.closed <- { id; name; parent; op; start_ns; end_ns = now_ns () } :: t.closed)

let spans t = List.sort (fun a b -> compare a.id b.id) t.closed

(* Children of one parent never overlap (one domain, dynamic scope), so
   the part of a span its children cover is the sum of their lengths. *)
let self_times spans =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Option.iter
        (fun p ->
          let c = Option.value (Hashtbl.find_opt covered p) ~default:0 in
          Hashtbl.replace covered p (c + s.end_ns - s.start_ns))
        s.parent)
    spans;
  let totals = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let self =
        s.end_ns - s.start_ns - Option.value (Hashtbl.find_opt covered s.id) ~default:0
      in
      match Hashtbl.find_opt totals s.name with
      | Some v -> Hashtbl.replace totals s.name (v + self)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace totals s.name self)
    spans;
  List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order

let to_json spans =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Int s.id);
             ("name", Json.Str s.name);
             ("parent", match s.parent with Some p -> Json.Int p | None -> Json.Null);
             ("op", Json.Int s.op);
             ("start_ns", Json.Int s.start_ns);
             ("end_ns", Json.Int s.end_ns);
           ])
       spans)
