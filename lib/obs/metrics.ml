(* The metrics registry: named counters, gauges (with sample series) and
   log-scale histograms, registered on first use and exported as
   JSON-lines or a human-readable table.

   Registration is a hashtable lookup; instrumentation sites that sit on
   a truly hot path should accumulate locally and flush deltas at a
   quiescent point (as the simulation kernel does at the end of [run]). *)

type counter = { mutable c_value : int }

type gauge = {
  mutable g_samples : (float option * float) list;
      (* (x, value), newest first; x = None stands for the sample index,
         resolved on read so appended samples keep counting *)
  mutable g_last : float option;
}

type histogram = { h_hist : Histogram.t }

type metric = Counter of counter | Gauge of gauge | Hist of histogram

type t = {
  table : (string, metric) Hashtbl.t;
  mutable names : string list;  (* registration order, newest first *)
}

let create () = { table = Hashtbl.create 32; names = [] }

let register t name make =
  match Hashtbl.find_opt t.table name with
  | Some m -> m
  | None ->
      let m = make () in
      Hashtbl.add t.table name m;
      t.names <- name :: t.names;
      m

let kind_error name want =
  invalid_arg (Printf.sprintf "Metrics: %s is not a %s" name want)

let counter t name =
  match register t name (fun () -> Counter { c_value = 0 }) with
  | Counter c -> c
  | _ -> kind_error name "counter"

let gauge t name =
  match
    register t name (fun () ->
        Gauge { g_samples = []; g_last = None })
  with
  | Gauge g -> g
  | _ -> kind_error name "gauge"

let histogram t name =
  match
    register t name (fun () ->
        Hist { h_hist = Histogram.create () })
  with
  | Hist h -> h
  | _ -> kind_error name "histogram"

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let counter_value c = c.c_value

let set ?x g v =
  g.g_samples <- (x, v) :: g.g_samples;
  g.g_last <- Some v

let last g = g.g_last

let samples g =
  List.mapi
    (fun i (x, v) -> ((match x with Some x -> x | None -> float_of_int i), v))
    (List.rev g.g_samples)

let observe h v = Histogram.observe h.h_hist v

(* --- lookups (for guards and tests) --- *)

let find_counter t name =
  match Hashtbl.find_opt t.table name with
  | Some (Counter c) -> Some c.c_value
  | _ -> None

let find_gauge t name =
  match Hashtbl.find_opt t.table name with
  | Some (Gauge g) -> g.g_last
  | _ -> None

let find_histogram t name =
  match Hashtbl.find_opt t.table name with
  | Some (Hist h) -> Some h.h_hist
  | _ -> None

let names t = List.rev t.names

(* The fan-in of a Par job: absorbing job registries in a fixed order
   gives the same registry whatever order the jobs ran in. *)
let absorb t other =
  List.iter
    (fun name ->
      match Hashtbl.find_opt other.table name with
      | Some (Counter c) -> incr ~by:c.c_value (counter t name)
      | Some (Gauge g) ->
          let into = gauge t name in
          into.g_samples <- g.g_samples @ into.g_samples;
          if g.g_last <> None then into.g_last <- g.g_last
      | Some (Hist h) -> Histogram.absorb (histogram t name).h_hist h.h_hist
      | None -> ())
    (names other)

(* --- export --- *)

let metric_jsonl buf name metric =
  let line j =
    Buffer.add_string buf (Json.to_string j);
    Buffer.add_char buf '\n'
  in
  match metric with
  | Counter c ->
      line
        (Json.Obj
           [
             ("type", Json.Str "counter");
             ("name", Json.Str name);
             ("value", Json.Int c.c_value);
           ])
  | Gauge g ->
      List.iter
        (fun (x, v) ->
          line
            (Json.Obj
               [
                 ("type", Json.Str "gauge");
                 ("name", Json.Str name);
                 ("x", Json.Float x);
                 ("value", Json.Float v);
               ]))
        (samples g)
  | Hist h ->
      let hh = h.h_hist in
      line
        (Json.Obj
           [
             ("type", Json.Str "histogram");
             ("name", Json.Str name);
             ("count", Json.Int (Histogram.count hh));
             ("sum", Json.Float (Histogram.sum hh));
             ("min", Json.Int (Histogram.min_value hh));
             ("max", Json.Int (Histogram.max_value hh));
             ( "buckets",
               Json.List
                 (List.map
                    (fun (lo, hi, c) ->
                      Json.Obj
                        [
                          ("lo", Json.Int lo);
                          ("hi", Json.Int hi);
                          ("count", Json.Int c);
                        ])
                    (Histogram.nonempty_buckets hh)) );
           ])

let to_jsonl t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.table name with
      | Some m -> metric_jsonl buf name m
      | None -> ())
    (names t);
  Buffer.contents buf
