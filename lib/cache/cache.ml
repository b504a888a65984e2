(* The verdict store: one JSON file per key under a cache directory.

   Lookups and stores are content-addressed ({!Key}), so there is no
   invalidation protocol — an edited netlist or property simply hashes
   to a different key and misses.  Writes go through a temp file and a
   rename, so a torn write can never produce a half-parseable entry; a
   corrupt, unreadable or undecodable entry reads as a miss.

   Telemetry: every lookup bumps the [cache.hits] or [cache.misses]
   counter (and each write [cache.stores]) through the Obs facade, and
   the same tallies are kept per handle for reports that run with
   telemetry off. *)

module Obs = Symbad_obs.Obs
module Json = Symbad_obs.Json

type t = {
  dir : string;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
}

let env_var = "SYMBAD_CACHE_DIR"

let default_dir () =
  match Sys.getenv_opt env_var with
  | Some d when d <> "" -> d
  | _ -> "_symbad_cache"

let create ?dir () =
  let dir = match dir with Some d -> d | None -> default_dir () in
  { dir; hits = 0; misses = 0; stores = 0 }

let dir t = t.dir
let hits t = t.hits
let misses t = t.misses
let stores t = t.stores

let path t key = Filename.concat t.dir (key ^ ".json")

let count t ~hit =
  if hit then begin
    t.hits <- t.hits + 1;
    if Obs.enabled () then Obs.incr_counter "cache.hits"
  end
  else begin
    t.misses <- t.misses + 1;
    if Obs.enabled () then Obs.incr_counter "cache.misses"
  end

let read_file p =
  try
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ | End_of_file -> None

let find t key decode =
  let entry =
    match read_file (path t key) with
    | None -> None
    | Some s -> ( match Json.parse s with Ok j -> decode j | Error _ -> None)
  in
  count t ~hit:(Option.is_some entry);
  entry

let ensure_dir d =
  if not (Sys.file_exists d) then
    try Sys.mkdir d 0o755 with Sys_error _ -> ()

let store t key json =
  ensure_dir t.dir;
  let final = path t key in
  (* concurrent writers race benignly: both write the same content and
     rename is atomic, so the entry is always a complete document *)
  let tmp = final ^ ".tmp" in
  (try
     let oc = open_out_bin tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         output_string oc (Json.to_string json);
         output_char oc '\n');
     Sys.rename tmp final;
     t.stores <- t.stores + 1;
     if Obs.enabled () then Obs.incr_counter "cache.stores"
   with Sys_error _ -> (try Sys.remove tmp with Sys_error _ -> ()))
