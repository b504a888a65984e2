(* Nestable timed spans plus instant markers, exported in the Chrome
   trace_event JSON format so a whole flow run opens as a timeline in
   chrome://tracing or Perfetto.

   Spans carry the host clock (the [ts]/[dur] fields, microseconds) and,
   when begun from inside a simulation, the simulated clock (in the
   [args]).  Spans live on named tracks, one Chrome "thread" per track:
   the default track carries the sequential flow (levels, verifications,
   solver calls), while each bus master gets its own track so that the
   interleaved transactions of concurrent simulation processes still
   render as properly nested rectangles.

   Every span has a timeline-unique [id] and a causal [parent]: the
   innermost span still open on the timeline, whatever its track.  A
   timeline is written by one domain, so that is the innermost span
   open on the domain.  A Par job records into a timeline of its own,
   and [absorb] folds it back under the dispatch span at the fan-in.
   Links between two "par" spans (dispatch -> job, job -> nested
   dispatch) are exported as Chrome flow events ("s"/"f"), so Perfetto
   draws the fan-out arrows. *)

type track = { tid : int; label : string; mutable depth : int }

type span = {
  s_id : int;
  s_parent : int option;
  s_name : string;
  s_cat : string;
  s_track : track;
  s_depth : int;
  s_start_us : float;
  s_sim_start_ns : int option;
  s_args : (string * Json.t) list;
}

type completed = {
  id : int;
  parent : int option;
  name : string;
  cat : string;
  track : string;
  depth : int;
  start_us : float;
  dur_us : float;
  sim_start_ns : int option;
  sim_dur_ns : int option;
  args : (string * Json.t) list;
}

type instant = {
  i_name : string;
  i_severity : Severity.t;
  i_ts_us : float;
  i_track : track;
  i_sim_ns : int option;
  i_args : (string * Json.t) list;
}

type t = {
  epoch_us : float;
  tracks : (string, track) Hashtbl.t;
  mutable next_tid : int;
  mutable next_span_id : int;
  mutable open_ids : int list;  (* open spans, innermost first *)
  mutable completed : completed list;  (* newest first *)
  mutable instants : instant list;
  mutable completed_count : int;
}

let default_track = "flow"

let now_us () = Unix.gettimeofday () *. 1e6

let create () =
  {
    epoch_us = now_us ();
    tracks = Hashtbl.create 8;
    next_tid = 1;
    next_span_id = 1;
    open_ids = [];
    completed = [];
    instants = [];
    completed_count = 0;
  }

let track_of t label =
  match Hashtbl.find_opt t.tracks label with
  | Some tr -> tr
  | None ->
      let tr = { tid = t.next_tid; label; depth = 0 } in
      t.next_tid <- t.next_tid + 1;
      Hashtbl.add t.tracks label tr;
      tr

let begin_span t ?(track = default_track) ?(cat = "app") ?(args = [])
    ?sim_ns name =
  let tr = track_of t track in
  let id = t.next_span_id in
  t.next_span_id <- id + 1;
  let s =
    {
      s_id = id;
      s_parent = (match t.open_ids with [] -> None | p :: _ -> Some p);
      s_name = name;
      s_cat = cat;
      s_track = tr;
      s_depth = tr.depth;
      s_start_us = now_us ();
      s_sim_start_ns = sim_ns;
      s_args = args;
    }
  in
  tr.depth <- tr.depth + 1;
  t.open_ids <- id :: t.open_ids;
  s

(* ids are unique, so the walk stops at the span: O(1) for LIFO closes *)
let rec remove_id id = function
  | [] -> []
  | x :: rest -> if x = id then rest else x :: remove_id id rest

let end_span t ?(args = []) ?sim_ns s =
  let tr = s.s_track in
  if tr.depth > 0 then tr.depth <- tr.depth - 1;
  t.open_ids <- remove_id s.s_id t.open_ids;
  let sim_dur_ns =
    match (s.s_sim_start_ns, sim_ns) with
    | Some a, Some b -> Some (b - a)
    | _ -> None
  in
  t.completed <-
    {
      id = s.s_id;
      parent = s.s_parent;
      name = s.s_name;
      cat = s.s_cat;
      track = tr.label;
      depth = s.s_depth;
      start_us = s.s_start_us;
      dur_us = now_us () -. s.s_start_us;
      sim_start_ns = s.s_sim_start_ns;
      sim_dur_ns;
      args = s.s_args @ args;
    }
    :: t.completed;
  t.completed_count <- t.completed_count + 1

let with_span t ?track ?cat ?args ?sim_ns name f =
  let s = begin_span t ?track ?cat ?args ?sim_ns name in
  match f () with
  | v ->
      end_span t s;
      v
  | exception e ->
      end_span t s;
      raise e

let instant t ?(severity = Severity.Info) ?(args = []) ?sim_ns name =
  t.instants <-
    {
      i_name = name;
      i_severity = severity;
      i_ts_us = now_us ();
      i_track = track_of t default_track;
      i_sim_ns = sim_ns;
      i_args = args;
    }
    :: t.instants

(* The fan-in of a Par job: the job's ids are offset past every id [t]
   has handed out, its top-level spans hang under the dispatch span on
   the job's lane track, and everything below keeps its track under the
   lane prefix (nested maps prefix again: "lane1/lane0/m2"). *)
let absorb t ~parent ~lane job =
  let offset = t.next_span_id - 1 in
  t.next_span_id <- t.next_span_id + job.next_span_id - 1;
  let lane_label = Printf.sprintf "lane%d" lane in
  let moved (c : completed) =
    let parent, track =
      match c.parent with
      | None -> (Some parent.s_id, lane_label)
      | Some p -> (Some (p + offset), lane_label ^ "/" ^ c.track)
    in
    ignore (track_of t track);
    { c with id = c.id + offset; parent; track }
  in
  (* oldest first, so tracks register in the order their spans closed *)
  t.completed <-
    List.fold_left
      (fun acc c -> moved c :: acc)
      t.completed (List.rev job.completed);
  t.completed_count <- t.completed_count + job.completed_count;
  if job.instants <> [] then begin
    let lane_track = track_of t lane_label in
    t.instants <-
      List.fold_left
        (fun acc i -> { i with i_track = lane_track } :: acc)
        t.instants (List.rev job.instants)
  end

let span_count t = t.completed_count

let completed_spans t = List.rev t.completed

let spans_with_cat t cat =
  List.filter (fun c -> String.equal c.cat cat) (completed_spans t)

(* --- Chrome trace_event export --- *)

let sim_args sim_start_ns sim_dur_ns =
  (match sim_start_ns with
  | Some ns -> [ ("sim_ns", Json.Int ns) ]
  | None -> [])
  @
  match sim_dur_ns with
  | Some ns -> [ ("sim_dur_ns", Json.Int ns) ]
  | None -> []

let to_chrome_json t =
  let rel us = us -. t.epoch_us in
  let id_args (c : completed) =
    ("span_id", Json.Int c.id)
    ::
    (match c.parent with
    | Some p -> [ ("parent_span_id", Json.Int p) ]
    | None -> [])
  in
  let span_event (c : completed) =
    Json.Obj
      [
        ("name", Json.Str c.name);
        ("cat", Json.Str c.cat);
        ("ph", Json.Str "X");
        ("pid", Json.Int 1);
        ("tid", Json.Int (track_of t c.track).tid);
        ("ts", Json.Float (rel c.start_us));
        ("dur", Json.Float c.dur_us);
        ( "args",
          Json.Obj (id_args c @ sim_args c.sim_start_ns c.sim_dur_ns @ c.args)
        );
      ]
  in
  let instant_event (i : instant) =
    Json.Obj
      [
        ("name", Json.Str i.i_name);
        ("cat", Json.Str (Severity.to_string i.i_severity));
        ("ph", Json.Str "i");
        ("s", Json.Str "t");
        ("pid", Json.Int 1);
        ("tid", Json.Int i.i_track.tid);
        ("ts", Json.Float (rel i.i_ts_us));
        ("args", Json.Obj (sim_args i.i_sim_ns None @ i.i_args));
      ]
  in
  (* links between two par spans render as flow arrows: dispatch -> job
     and job -> nested dispatch *)
  let is_par (c : completed) = String.equal c.cat "par" in
  let par_by_id = Hashtbl.create 64 in
  List.iter
    (fun (c : completed) -> if is_par c then Hashtbl.replace par_by_id c.id c)
    t.completed;
  let flow_events (c : completed) =
    match c.parent with
    | Some p when is_par c -> (
        match Hashtbl.find_opt par_by_id p with
        | Some pc ->
            let arrow ph extra ts track =
              Json.Obj
                ([
                   ("name", Json.Str "dispatch");
                   ("cat", Json.Str "par");
                   ("ph", Json.Str ph);
                   ("id", Json.Int c.id);
                   ("pid", Json.Int 1);
                   ("tid", Json.Int (track_of t track).tid);
                   ("ts", Json.Float (rel ts));
                 ]
                @ extra)
            in
            [
              arrow "s" [] (pc.start_us +. (pc.dur_us /. 2.)) pc.track;
              arrow "f" [ ("bp", Json.Str "e") ] c.start_us c.track;
            ]
        | None -> [])
    | Some _ | None -> []
  in
  let thread_name tr =
    Json.Obj
      [
        ("name", Json.Str "thread_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int tr.tid);
        ("args", Json.Obj [ ("name", Json.Str tr.label) ]);
      ]
  in
  let tracks =
    Hashtbl.fold (fun _ tr acc -> tr :: acc) t.tracks []
    |> List.sort (fun a b -> Int.compare a.tid b.tid)
  in
  let spans = completed_spans t in
  Json.to_string
    (Json.Obj
       [
         ("displayTimeUnit", Json.Str "ns");
         ( "traceEvents",
           Json.List
             (List.map thread_name tracks
             @ List.map span_event spans
             @ List.concat_map flow_events spans
             @ List.map instant_event (List.rev t.instants)) );
       ])
