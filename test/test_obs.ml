(* Tests for the observability library: JSON round-trips, histogram
   bucketing, span nesting, Chrome-trace export validated by parsing it
   back, disabled-mode no-op semantics, and the end-to-end wiring
   through the four-level flow. *)

open Symbad_obs
open Symbad_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Every test that touches the global facade restores a clean, disabled
   state so suite order never matters. *)
let with_obs enabled f =
  Obs.reset ();
  Obs.set_enabled enabled;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* --- Json --- *)

let json_round_trip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("t", Json.Bool true);
        ("n", Json.Int (-42));
        ("x", Json.Float 1.5);
        ("s", Json.Str "a \"quoted\"\nline\twith\\escapes");
        ("l", Json.List [ Json.Int 1; Json.Str "two"; Json.Bool false ]);
        ("o", Json.Obj [ ("inner", Json.Int 7) ]);
      ]
  in
  let parsed = Json.parse_exn (Json.to_string doc) in
  check_bool "round trip" true (parsed = doc)

let json_emitter_edges () =
  (* non-finite floats must not produce invalid JSON *)
  check_str "nan" "null" (Json.to_string (Json.Float nan));
  check_str "inf" "null" (Json.to_string (Json.Float infinity));
  check_bool "max_int survives" true
    (Json.parse_exn (Json.to_string (Json.Int max_int)) = Json.Int max_int);
  (* control characters are escaped *)
  let s = Json.to_string (Json.Str "a\x01b") in
  check_bool "control escaped" true
    (String.length s > 4 && not (String.contains s '\x01'))

let json_parse_errors () =
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ ""; "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\" 1}"; "1 2" ]

let json_accessors () =
  let doc = Json.parse_exn {|{"a": [1, 2.5], "b": "s"}|} in
  check_bool "member" true (Json.member "a" doc <> None);
  check_bool "missing member" true (Json.member "zz" doc = None);
  (match Json.member "a" doc with
  | Some l -> check_int "list len" 2 (List.length (Option.get (Json.to_list l)))
  | None -> Alcotest.fail "no member a");
  check_bool "to_str" true
    (Option.map (Json.to_str) (Json.member "b" doc) = Some (Some "s"))

(* --- Histogram --- *)

let histogram_buckets () =
  check_int "zero" 0 (Histogram.bucket_index 0);
  check_int "one" 1 (Histogram.bucket_index 1);
  check_int "two" 2 (Histogram.bucket_index 2);
  check_int "three" 2 (Histogram.bucket_index 3);
  check_int "four" 3 (Histogram.bucket_index 4);
  check_int "negative clamps" 0 (Histogram.bucket_index (-5));
  (* every bucket's bounds contain exactly the values that index to it *)
  for i = 0 to 10 do
    let lo, hi = Histogram.bucket_bounds i in
    check_int "lo indexes to i" i (Histogram.bucket_index lo);
    check_int "hi indexes to i" i (Histogram.bucket_index hi)
  done;
  (* max_int lands in a valid (the last) bucket *)
  let last = Histogram.bucket_index max_int in
  let lo, hi = Histogram.bucket_bounds last in
  check_bool "max_int within bounds" true (lo <= max_int && max_int <= hi)

let histogram_observe () =
  let h = Histogram.create () in
  check_int "empty count" 0 (Histogram.count h);
  check_int "empty min" 0 (Histogram.min_value h);
  List.iter (Histogram.observe h) [ 0; 1; 1; 7; 1000; -3; max_int ];
  check_int "count" 7 (Histogram.count h);
  check_int "min" 0 (Histogram.min_value h);
  check_int "max" max_int (Histogram.max_value h);
  (* float sum: no overflow even with max_int observed *)
  check_bool "sum finite" true (Float.is_finite (Histogram.sum h));
  check_bool "mean positive" true (Histogram.mean h > 0.);
  let buckets = Histogram.nonempty_buckets h in
  check_bool "buckets ascending" true
    (List.sort compare buckets = buckets);
  check_int "total across buckets" 7
    (List.fold_left (fun acc (_, _, c) -> acc + c) 0 buckets);
  Histogram.reset h;
  check_int "reset" 0 (Histogram.count h)

(* --- Metrics registry --- *)

let metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check_int "counter" 5 (Metrics.counter_value (Metrics.counter m "c"));
  let g = Metrics.gauge m "g" in
  Metrics.set g 0.25;
  Metrics.set ~x:9. g 0.5;
  check_bool "gauge last" true (Metrics.last g = Some 0.5);
  check_int "gauge samples" 2 (List.length (Metrics.samples g));
  let h = Metrics.histogram m "h" in
  Metrics.observe h 12;
  check_bool "kind mismatch rejected" true
    (try
       ignore (Metrics.gauge m "c");
       false
     with Invalid_argument _ -> true);
  check_bool "find" true (Metrics.find_counter m "c" = Some 5);
  (* jsonl export: every line parses *)
  let lines =
    String.split_on_char '\n' (Metrics.to_jsonl m)
    |> List.filter (fun l -> String.trim l <> "")
  in
  check_bool "jsonl nonempty" true (lines <> []);
  List.iter
    (fun l ->
      match Json.parse l with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "bad jsonl line %S: %s" l e)
    lines

(* --- Tracer --- *)

let span_nesting () =
  let tr = Tracer.create () in
  let outer = Tracer.begin_span tr ~cat:"t" ~sim_ns:0 "outer" in
  let inner = Tracer.begin_span tr ~cat:"t" ~sim_ns:10 "inner" in
  Tracer.end_span tr ~sim_ns:40 inner;
  let other = Tracer.begin_span tr ~track:"m0" ~cat:"t" "elsewhere" in
  Tracer.end_span tr other;
  Tracer.end_span tr ~sim_ns:100 outer;
  let spans = Tracer.completed_spans tr in
  check_int "span count" 3 (Tracer.span_count tr);
  (* completion order: inner closes first *)
  check_str "first completed" "inner" (List.nth spans 0).Tracer.name;
  check_str "last completed" "outer" (List.nth spans 2).Tracer.name;
  let find n = List.find (fun s -> s.Tracer.name = n) spans in
  check_int "outer depth" 0 (find "outer").Tracer.depth;
  check_int "inner depth" 1 (find "inner").Tracer.depth;
  (* a span on its own track starts a fresh nesting, but its parent is
     the innermost open span whatever the track *)
  check_int "other-track depth" 0 (find "elsewhere").Tracer.depth;
  check_bool "other-track parent" true
    ((find "elsewhere").Tracer.parent = Some (find "outer").Tracer.id);
  check_bool "sim durations" true
    ((find "inner").Tracer.sim_dur_ns = Some 30
    && (find "outer").Tracer.sim_dur_ns = Some 100);
  (* host-time containment *)
  let o = find "outer" and i = find "inner" in
  check_bool "host containment" true
    (o.Tracer.start_us <= i.Tracer.start_us
    && i.Tracer.start_us +. i.Tracer.dur_us
       <= o.Tracer.start_us +. o.Tracer.dur_us +. 1e-6)

let with_span_exception () =
  let tr = Tracer.create () in
  (try
     Tracer.with_span tr "boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  check_int "closed on exception" 1 (Tracer.span_count tr)

let chrome_trace_parses_back () =
  let tr = Tracer.create () in
  Tracer.with_span tr ~cat:"level" ~sim_ns:0 "level1" (fun () ->
      Tracer.with_span tr ~track:"cpu0" ~cat:"bus" ~sim_ns:5
        ~args:[ ("bytes", Json.Int 4) ]
        "bus.read"
        (fun () -> ()));
  Tracer.instant tr ~severity:Severity.Warn "marker";
  let doc = Json.parse_exn (Tracer.to_chrome_json tr) in
  let events =
    Option.get (Json.to_list (Option.get (Json.member "traceEvents" doc)))
  in
  let phase e = Option.get (Json.to_str (Option.get (Json.member "ph" e))) in
  let complete = List.filter (fun e -> phase e = "X") events in
  let instants = List.filter (fun e -> phase e = "i") events in
  let metadata = List.filter (fun e -> phase e = "M") events in
  check_int "complete events" 2 (List.length complete);
  check_int "instants" 1 (List.length instants);
  (* bus.read's parent is level1 on another track, but only links
     between two par spans are drawn as flow arrows *)
  check_int "no flow arrows" 0
    (List.length (List.filter (fun e -> phase e = "s" || phase e = "f") events));
  (* one thread_name record per track *)
  check_int "track metadata" 2 (List.length metadata);
  List.iter
    (fun e ->
      check_bool "has ts" true (Json.member "ts" e <> None);
      check_bool "has dur" true (Json.member "dur" e <> None);
      check_bool "nonneg dur" true
        (Option.get (Json.to_number (Option.get (Json.member "dur" e))) >= 0.))
    complete;
  let bus =
    List.find
      (fun e ->
        Option.get (Json.to_str (Option.get (Json.member "name" e)))
        = "bus.read")
      complete
  in
  let args = Option.get (Json.member "args" bus) in
  check_bool "span args exported" true
    (Json.member "bytes" args <> None && Json.member "sim_ns" args <> None)

(* --- the global facade --- *)

let disabled_is_noop () =
  with_obs false (fun () ->
      let sp = Obs.begin_span ~cat:"x" "ignored" in
      Obs.event ~severity:Severity.Error "ignored";
      Obs.incr_counter "ignored";
      Obs.set_gauge "ignored" 1.;
      Obs.observe "ignored" 3;
      Obs.end_span sp;
      Obs.span "also_ignored" (fun () -> ()) ;
      check_int "no spans" 0 (Tracer.span_count (Obs.tracer ()));
      check_bool "no metrics" true (Metrics.names (Obs.metrics ()) = []);
      (* end_span on the canonical disabled span is a no-op too *)
      Obs.end_span Obs.null_span)

let error_event_is_an_instant () =
  with_obs true (fun () ->
      Obs.event ~severity:Severity.Debug "quiet";
      Obs.event ~severity:Severity.Error
        ~args:[ ("k", Json.Str "v") ]
        ~sim_ns:17 "loud";
      (* Debug stays off the timeline; Error becomes one instant *)
      let doc = Json.parse_exn (Tracer.to_chrome_json (Obs.tracer ())) in
      let events =
        Option.get (Json.to_list (Option.get (Json.member "traceEvents" doc)))
      in
      let str k e = Option.bind (Json.member k e) Json.to_str in
      match List.filter (fun e -> str "ph" e = Some "i") events with
      | [ loud ] ->
          check_bool "name" true (str "name" loud = Some "loud");
          check_bool "severity" true (str "cat" loud = Some "error");
          let args = Option.get (Json.member "args" loud) in
          check_bool "args carried" true
            (Json.member "k" args = Some (Json.Str "v"));
          check_bool "sim time carried" true
            (Json.member "sim_ns" args = Some (Json.Int 17))
      | is -> Alcotest.failf "%d instants, expected one" (List.length is))

(* --- end to end through the flow --- *)

let flow_is_instrumented () =
  let { Flow_fixture.report; tracer = tr; metrics = m; _ } =
    Lazy.force Flow_fixture.cold
  in
  check_bool "flow passed" true report.Flow.all_passed;
  let levels = Tracer.spans_with_cat tr "level" in
  check_int "four level spans" 4 (List.length levels);
  List.iteri
    (fun i s ->
      check_str "level order" (Printf.sprintf "level%d" (i + 1)) s.Tracer.name)
    levels;
  check_bool "bus spans nested in the run" true
    (Tracer.spans_with_cat tr "bus" <> []);
  check_bool "sat spans" true (Tracer.spans_with_cat tr "sat" <> []);
  check_bool "mc spans" true (Tracer.spans_with_cat tr "mc" <> []);
  let pos name =
    match Metrics.find_counter m name with Some v -> v > 0 | None -> false
  in
  check_bool "kernel events counted" true (pos "sim.events_dispatched");
  check_bool "bus transactions counted" true (pos "bus.transactions");
  check_bool "sat solves counted" true (pos "sat.solves");
  check_bool "grant-wait histogram" true
    (match Metrics.find_histogram m "bus.grant_wait_ns" with
    | Some h -> Histogram.count h > 0
    | None -> false);
  check_bool "atpg coverage gauge" true
    (match Metrics.find_gauge m "atpg.coverage" with
    | Some v -> v > 0.
    | None -> false);
  (* the whole timeline export survives a parse *)
  let doc = Json.parse_exn (Tracer.to_chrome_json tr) in
  check_bool "traceEvents present" true (Json.member "traceEvents" doc <> None);
  (* and the flow report JSON parses and agrees with the run *)
  let rj = Json.parse_exn (Flow.to_json report) in
  check_bool "report all_passed" true
    (Json.member "all_passed" rj = Some (Json.Bool true));
  check_int "report levels" 4
    (List.length
       (Option.get (Json.to_list (Option.get (Json.member "levels" rj)))))

(* One parent rule on every domain: a span's parent is the innermost
   span open on its domain, and a Par job hangs under its dispatch span.
   So the four levels are the flow's only roots, and the verification
   work (every dispatch of level 4 included) sits beneath them. *)
let flow_spans_have_parents () =
  let { Flow_fixture.tracer = tr; _ } = Lazy.force Flow_fixture.cold in
  let spans = Tracer.completed_spans tr in
  let by_id = Hashtbl.create 4096 in
  List.iter (fun (s : Tracer.completed) -> Hashtbl.replace by_id s.id s) spans;
  let is_dispatch (s : Tracer.completed) =
    s.cat = "par" && Filename.check_suffix s.name ".dispatch"
  in
  let roots =
    List.filter_map
      (fun (s : Tracer.completed) ->
        if s.parent = None then Some s.name else None)
      spans
  in
  let level4 = List.find (fun (s : Tracer.completed) -> s.name = "level4") spans in
  check_bool "level4 has child spans" true
    (List.exists
       (fun (s : Tracer.completed) -> s.parent = Some level4.id)
       spans);
  check_bool "only the four levels are roots" true
    (List.sort compare roots = [ "level1"; "level2"; "level3"; "level4" ]);
  let dispatches = List.filter is_dispatch spans in
  check_bool "the flow dispatches" true (dispatches <> []);
  List.iter
    (fun (s : Tracer.completed) ->
      if is_dispatch s then
        check_bool (s.name ^ " has a parent") true (s.parent <> None)
      else if s.cat = "par" then
        check_bool
          (s.name ^ " job hangs under a dispatch span")
          true
          (match Option.bind s.parent (Hashtbl.find_opt by_id) with
          | Some p -> is_dispatch p
          | None -> false))
    spans

let suite =
  [
    Alcotest.test_case "json round trip" `Quick json_round_trip;
    Alcotest.test_case "json emitter edges" `Quick json_emitter_edges;
    Alcotest.test_case "json parse errors" `Quick json_parse_errors;
    Alcotest.test_case "json accessors" `Quick json_accessors;
    Alcotest.test_case "histogram buckets" `Quick histogram_buckets;
    Alcotest.test_case "histogram observe" `Quick histogram_observe;
    Alcotest.test_case "metrics registry" `Quick metrics_registry;
    Alcotest.test_case "span nesting" `Quick span_nesting;
    Alcotest.test_case "with_span on exception" `Quick with_span_exception;
    Alcotest.test_case "chrome trace parses back" `Quick
      chrome_trace_parses_back;
    Alcotest.test_case "disabled is no-op" `Quick disabled_is_noop;
    Alcotest.test_case "error event becomes an instant" `Quick
      error_event_is_an_instant;
    Alcotest.test_case "flow is instrumented" `Slow flow_is_instrumented;
    Alcotest.test_case "flow spans have parents" `Slow flow_spans_have_parents;
  ]
