(* The Symbad benchmark: the command BENCHMARK.json names.

     dune exec -- perf/main.exe --workload NAME|all --seed N
       [--seconds S] [--trace 0|1] [--json FILE]

   Run from the repository root: the metric catalogue is read from
   BENCHMARK.json, whose [run_seconds] is the default of [--seconds].
   One process runs one workload: set-up (repeated and reported as a
   median while it is cheap), then whole passes of the workload's ops in
   a closed loop — at least two, and more while another fits in
   [--seconds].  With [--trace 1] one untraced pass (the reference the
   traced ops are checked against) is followed by two traced passes, and
   the per-layer metrics replace the end-to-end ones.  The last stdout
   line is the JSON result. *)

open Symbad_perf
module Json = Symbad_obs.Json
module Obs = Symbad_obs.Obs
module Metrics = Symbad_obs.Metrics

type metric = { name : string; value : float; unit_ : string; samples : int }

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt
let now_s () = float_of_int (Spans.now_ns ()) /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(* --- the catalogue -------------------------------------------------------- *)

type catalogue = {
  run_seconds : int;
  workloads : string list;
  end_to_end : (string * string) list;
  per_layer : (string * string) list;
}

let catalogue () =
  let doc =
    match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
    | text -> (
        match Json.parse text with Ok d -> d | Error e -> fail "BENCHMARK.json: %s" e)
    | exception Sys_error e -> fail "%s (run from the repository root)" e
  in
  let entries key =
    match Option.bind (Json.member key doc) Json.to_list with
    | Some l -> l
    | None -> fail "BENCHMARK.json has no %S list" key
  in
  let field k e =
    match Option.bind (Json.member k e) Json.to_str with
    | Some s -> s
    | None -> fail "BENCHMARK.json: an entry has no %S" k
  in
  let metrics key = List.map (fun e -> (field "name" e, field "unit" e)) (entries key) in
  {
    run_seconds =
      (match Option.bind (Json.member "run_seconds" doc) Json.to_number with
      | Some s -> int_of_float s
      | None -> fail "BENCHMARK.json has no run_seconds");
    workloads = List.map (field "name") (entries "workloads");
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

(* The binary may emit exactly the metrics the catalogue declares. *)
let check_catalogue declared metrics =
  let emitted = List.map (fun m -> (m.name, m.unit_)) metrics in
  let missing = List.filter (fun d -> not (List.mem d emitted)) declared
  and extra = List.filter (fun e -> not (List.mem e declared)) emitted in
  let show l = String.concat ", " (List.map (fun (n, u) -> n ^ " [" ^ u ^ "]") l) in
  if missing <> [] then fail "declared in BENCHMARK.json but not emitted: %s" (show missing);
  if extra <> [] then fail "emitted but not declared in BENCHMARK.json: %s" (show extra)

(* --- process-level readings ---------------------------------------------- *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.value ~default:0.

let rec remove path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* An op's time is its best repeat across the run's passes (at least
   two when timed, two when traced).  The host's bursts of contention
   only ever make a repeat slower, so the best repeat is what the code
   costs, and the median over the pass's ops (each a different input) is
   what a typical op costs. *)
let best_times (times : float list array) =
  Array.to_list times
  |> List.filter_map (function [] -> None | ts -> Some (List.fold_left Float.min infinity ts))
  |> Array.of_list

let median_or_zero xs = if xs = [||] then 0. else Stats.median xs

(* --- set-up and the timed loop ------------------------------------------ *)

let setup_budget_s = 1.
let max_setups = 5

(* Set-up repeated while cheap; the last one is kept. *)
let setup (w : Workloads.workload) ~dir ~seed =
  let rec go times prev =
    Option.iter (fun (t : Workloads.t) -> t.close ()) prev;
    let t0 = now_s () in
    let t =
      try w.setup ~dir ~seed with
      | Workloads.Wrong s -> fail "%s set-up: %s" w.name s
      | e -> fail "%s set-up: %s" w.name (Printexc.to_string e)
    in
    let times = (now_s () -. t0) :: times in
    if List.length times < max_setups && List.fold_left ( +. ) 0. times < setup_budget_s then
      go times (Some t)
    else (times, t)
  in
  go [] None

type loop = {
  times : float list array;  (** per op of the pass, its timings (ms) *)
  passes : int;
  gc_words : float list;  (** minor-heap words each timed op allocated *)
  cache : float list;  (** cache hits, misses and stores per timed op *)
  digests : string option array;  (** per op, the digest of its checked outcome *)
  attempted : int;
  failed : int;
  first_error : string option;
}

let describe = function Workloads.Wrong s -> s | e -> Printexc.to_string e

let timed_loop (t : Workloads.t) ~min_passes ~seconds =
  let n = List.length t.pass in
  let times = Array.make n [] and digests = Array.make n None in
  let gc_words = ref [] and cache = Array.make 3 0 in
  let attempted = ref 0 and failed = ref 0 and first_error = ref None in
  let failure i label e =
    incr failed;
    if !first_error = None then
      first_error := Some (Printf.sprintf "op %d (%s): %s" i label (describe e))
  in
  let run_op i label =
    incr attempted;
    let h0, m0, s0 = t.cache_counts () and g0 = Gc.minor_words () in
    let t0 = Spans.now_ns () in
    match t.op i with
    | exception e -> failure i label e
    | check -> (
        times.(i) <- ms_of_ns (Spans.now_ns () - t0) :: times.(i);
        gc_words := (Gc.minor_words () -. g0) :: !gc_words;
        let h, m, s = t.cache_counts () in
        List.iteri (fun k d -> cache.(k) <- cache.(k) + d) [ h - h0; m - m0; s - s0 ];
        match check () with
        | d -> if digests.(i) = None then digests.(i) <- Some d
        | exception e -> failure i label e)
  in
  let start = now_s () and pass_s = ref [] in
  let pass () =
    t.new_pass ();
    let p0 = now_s () in
    List.iteri run_op t.pass;
    pass_s := (now_s () -. p0) :: !pass_s
  in
  for _ = 1 to min_passes do
    pass ()
  done;
  while now_s () -. start +. Stats.median (Array.of_list !pass_s) <= float_of_int seconds do
    pass ()
  done;
  let per_op total = float_of_int total /. float_of_int (max 1 (List.length !gc_words)) in
  {
    times;
    passes = List.length !pass_s;
    gc_words = !gc_words;
    cache = Array.to_list (Array.map per_op cache);
    digests;
    attempted = !attempted;
    failed = !failed;
    first_error = !first_error;
  }

let end_to_end ~setup_s (l : loop) =
  let best = best_times l.times in
  let ops = Array.fold_left (fun a ts -> a + List.length ts) 0 l.times in
  [
    { name = "setup_s"; value = Stats.median (Array.of_list setup_s); unit_ = "s"; samples = List.length setup_s };
    { name = "op_p50_ms"; value = median_or_zero best; unit_ = "ms"; samples = ops };
    { name = "wall_s"; value = Array.fold_left ( +. ) 0. best /. 1e3; unit_ = "s"; samples = ops };
    { name = "peak_rss_mb"; value = peak_rss_mb (); unit_ = "MB"; samples = 1 };
  ]

(* --- the traced passes ---------------------------------------------------- *)

(* The program's own counters, read with Obs on: (metric, Obs counter). *)
let obs_counts =
  [
    ("sat.solves", "sat.solves");
    ("sat.conflicts", "sat.conflicts");
    ("sat.propagations", "sat.propagations");
    ("mc.sessions", "mc.sessions");
    ("lint.rules_run", "lint.rules_run");
    ("sim.events", "sim.events_dispatched");
    ("tlm.transactions", "bus.transactions");
    ("fpga.reconfigurations", "fpga.reconfigurations");
    ("fpga.bitstream_bytes", "fpga.bitstream_bytes");
    ("par.jobs", "par.jobs_dispatched");
    ("resil.masked", "resil.masked");
  ]

(* The Obs counters, then the counts the traced forms report
   themselves: the exact counts every traced pass must repeat. *)
let exact_counts =
  List.map fst obs_counts
  @ [ "pcc.faults"; "pcc.detectable"; "pcc.covered"; "pcc.unresolved"; "resil.trials" ]

(* Span names, one per layer; each becomes a [<name>.self_pct] metric. *)
let layers =
  [
    "core.inputs"; "core.level1"; "core.level2"; "core.level3"; "sim.compare";
    "lpv"; "atpg"; "lint"; "symbc"; "mc"; "pcc"; "cache"; "resil";
  ]

type traced = {
  spans : Spans.span list;
  times : float list array;  (** per op of the pass, its two traced timings (ms) *)
  pass_counts : (string * int) list array;  (** per traced pass, in [exact_counts] order *)
  failures : string list;  (** self-check failures *)
  traced_failed : int;
}

let traced_passes (t : Workloads.t) ~digests =
  let sp = Spans.create () in
  let n = List.length t.pass in
  let times = Array.make n [] in
  let failures = ref [] and failed = ref 0 in
  let check ok fmt = Printf.ksprintf (fun s -> if not ok then failures := s :: !failures) fmt in
  let traced_pass p =
    t.new_pass ();
    let counts = Hashtbl.create 16 in
    let count k v = Hashtbl.replace counts k (v + Option.value (Hashtbl.find_opt counts k) ~default:0) in
    let p0 = Spans.now_ns () in
    List.iteri
      (fun i label ->
        let op = (p * n) + i in
        Obs.reset ();
        Obs.set_enabled true;
        (match Spans.span sp ~op "op" (fun () -> t.traced sp ~op ~count i) with
        | d ->
            check (digests.(i) = Some d) "traced op %d (%s): outcome differs from the end-to-end op" i
              label
        | exception e ->
            incr failed;
            check false "traced op %d (%s): %s" i label (describe e));
        Obs.set_enabled false;
        let reg = Obs.metrics () in
        List.iter
          (fun (metric, c) -> count metric (Option.value (Metrics.find_counter reg c) ~default:0))
          obs_counts)
      t.pass;
    let wall = Spans.now_ns () - p0 in
    let covered =
      List.fold_left
        (fun acc (s : Spans.span) ->
          if s.parent <> None || s.op / n <> p then acc
          else begin
            times.(s.op mod n) <- ms_of_ns (s.end_ns - s.start_ns) :: times.(s.op mod n);
            acc + s.end_ns - s.start_ns
          end)
        0 (Spans.spans sp)
    in
    check
      (float_of_int covered >= 0.9 *. float_of_int wall)
      "traced pass %d: op spans cover %.1f %% of it" p
      (100. *. float_of_int covered /. float_of_int wall);
    List.map (fun k -> (k, Option.value (Hashtbl.find_opt counts k) ~default:0)) exact_counts
  in
  let pass_counts = Array.init 2 traced_pass in
  Obs.reset ();
  check (pass_counts.(0) = pass_counts.(1)) "exact counts differ between the traced passes";
  let spans = Spans.spans sp in
  List.iter
    (fun (s : Spans.span) -> check (s.name = "op" || List.mem s.name layers) "span %S is in no layer" s.name)
    spans;
  {
    spans;
    times;
    pass_counts;
    failures = List.sort_uniq compare !failures;
    traced_failed = !failed;
  }

let per_layer (tr : traced) (l : loop) =
  let self = Spans.self_times tr.spans in
  let self_ns name = Option.value (List.assoc_opt name self) ~default:0 in
  let traced_ms = Array.concat (Array.to_list (Array.map Array.of_list tr.times)) in
  let n = Array.length traced_ms in
  let op_ns = Array.fold_left ( +. ) 0. traced_ms *. 1e6 in
  let pct ns = 100. *. float_of_int ns /. op_ns in
  let pass_len = Array.length tr.times in
  let pass_total name = float_of_int (List.assoc name tr.pass_counts.(0)) in
  let per_op name = pass_total name /. float_of_int pass_len in
  (* a count over both traced passes, per second of the spans' self time *)
  let rate count spans =
    let s = float_of_int (List.fold_left (fun a sp -> a + self_ns sp) 0 spans) /. 1e9 in
    if s > 0. then 2. *. pass_total count /. s else 0.
  in
  let traced_p50 = median_or_zero (best_times tr.times) in
  let untraced = List.length l.gc_words in
  List.map (fun s -> { name = s ^ ".self_pct"; value = pct (self_ns s); unit_ = "%"; samples = n }) layers
  @ [
      { name = "obs.unattributed_pct"; value = pct (self_ns "op"); unit_ = "%"; samples = n };
      { name = "obs.traced_op_ms"; value = traced_p50; unit_ = "ms"; samples = n };
      {
        name = "obs.trace_overhead_pct";
        value = 100. *. ((traced_p50 /. median_or_zero (best_times l.times)) -. 1.);
        unit_ = "%";
        samples = n + untraced;
      };
    ]
  @ List.map
      (fun k ->
        { name = k; value = per_op k; unit_ = (if k = "fpga.bitstream_bytes" then "bytes" else "count"); samples = 2 })
      exact_counts
  @ List.map2
      (fun k v -> { name = k; value = v; unit_ = "count"; samples = untraced })
      [ "cache.hits"; "cache.misses"; "cache.stores" ]
      l.cache
  @ [
      { name = "sat.propagations_per_s"; value = rate "sat.propagations" [ "mc"; "pcc" ]; unit_ = "1/s"; samples = n };
      {
        name = "sim.events_per_s";
        value = rate "sim.events" [ "core.level1"; "core.level2"; "core.level3"; "resil" ];
        unit_ = "1/s";
        samples = n;
      };
      { name = "gc.minor_mwords"; value = mean l.gc_words /. 1e6; unit_ = "Mwords"; samples = untraced };
    ]

(* --- one workload ------------------------------------------------------- *)

let floats l = Json.List (List.map (fun v -> Json.Float v) l)

let write_json file (w : Workloads.workload) (t : Workloads.t) ~seed ~seconds ~correct ~attempted
    ~failed ~setup_s (l : loop) traced metrics =
  let doc =
    Json.Obj
      ([
         ("workload", Json.Str w.name);
         ("seed", Json.Int seed);
         ("seconds", Json.Int seconds);
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("setup_s", floats (List.rev setup_s));
         ( "ops",
           Json.List
             (List.mapi
                (fun i label -> Json.Obj [ ("op", Json.Str label); ("ms", floats (List.rev l.times.(i))) ])
                t.pass) );
         ( "metrics",
           Json.List
             (List.map
                (fun m ->
                  Json.Obj
                    [
                      ("name", Json.Str m.name);
                      ("value", Json.Float m.value);
                      ("unit", Json.Str m.unit_);
                      ("samples", Json.Int m.samples);
                    ])
                metrics) );
       ]
      @
      match traced with
      | Some tr ->
          [
            ("self_check_failures", Json.List (List.map (fun s -> Json.Str s) tr.failures));
            ("spans", Spans.to_json tr.spans);
          ]
      | None -> [])
  in
  Out_channel.with_open_text file (fun oc -> output_string oc (Json.to_string doc ^ "\n"))

let run_workload (w : Workloads.workload) ~cat ~seed ~seconds ~trace ~json =
  let dir = Filename.concat "_perf_work" (string_of_int (Unix.getpid ())) in
  (try Sys.mkdir "_perf_work" 0o755 with Sys_error _ -> ());
  Sys.mkdir dir 0o755;
  at_exit (fun () ->
      remove dir;
      try Sys.rmdir "_perf_work" with Sys_error _ -> ());
  let setup_s, t = setup w ~dir ~seed in
  let l =
    if trace then timed_loop t ~min_passes:1 ~seconds:0 else timed_loop t ~min_passes:2 ~seconds
  in
  let traced = if trace then Some (traced_passes t ~digests:l.digests) else None in
  t.close ();
  let metrics =
    match traced with Some tr -> per_layer tr l | None -> end_to_end ~setup_s l
  in
  check_catalogue (if trace then cat.per_layer else cat.end_to_end) metrics;
  let n = List.length t.pass in
  let attempted = l.attempted + if trace then 2 * n else 0 in
  let failed = l.failed + Option.fold ~none:0 ~some:(fun tr -> tr.traced_failed) traced in
  let self_check_failures = Option.fold ~none:[] ~some:(fun tr -> tr.failures) traced in
  let correct = failed = 0 && self_check_failures = [] in
  (* the human-readable report *)
  let all_ms = Array.concat (Array.to_list (Array.map Array.of_list l.times)) in
  Printf.printf "workload %s  seed %d  %d ops: %d passes of %d%s  failed %d\n" w.name seed
    (Array.length all_ms) l.passes n (if trace then " (+2 traced)" else "") failed;
  Option.iter (Printf.printf "  first failure: %s\n") l.first_error;
  List.iter (Printf.printf "  self-check FAILED: %s\n") self_check_failures;
  if Array.length all_ms >= 2 then begin
    let q1, q2, q3 = Stats.quartiles all_ms in
    Printf.printf "  op latency quartiles: %.3f / %.3f / %.3f ms (n=%d)\n" q1 q2 q3 (Array.length all_ms)
  end;
  (match Stats.tail all_ms with
  | Some (p, v) -> Printf.printf "  op latency tail: p%g = %.3f ms (n=%d)\n" p v (Array.length all_ms)
  | None ->
      Printf.printf "  op latency tail: none (n=%d; a tail needs 10 samples beyond it)\n"
        (Array.length all_ms));
  List.iter (fun m -> Printf.printf "  %-28s %16.6f %-7s n=%d\n" m.name m.value m.unit_ m.samples) metrics;
  Option.iter
    (fun tr ->
      let ops = float_of_int (2 * n) in
      List.iter
        (fun (name, ns) -> Printf.printf "  span %-22s self %12.3f ms/op\n" name (ms_of_ns ns /. ops))
        (Spans.self_times tr.spans))
    traced;
  if json <> "" then write_json json w t ~seed ~seconds ~correct ~attempted ~failed ~setup_s l traced metrics;
  (* the result line *)
  let number v =
    if Float.is_finite v then Printf.sprintf "%.17g" v else fail "metric value %f is not finite" v
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value) m.unit_)
          metrics));
  if correct then 0 else 1

(* --- all workloads, one process each ---------------------------------- *)

let run_all ~cat ~seed ~seconds ~trace ~json =
  List.fold_left
    (fun code name ->
      let args =
        [ "--workload"; name; "--seed"; string_of_int seed; "--seconds"; string_of_int seconds;
          "--trace"; (if trace then "1" else "0") ]
        @ if json = "" then [] else [ "--json"; Printf.sprintf "%s.%s" json name ]
      in
      let pid =
        Unix.create_process Sys.executable_name
          (Array.of_list (Sys.executable_name :: args))
          Unix.stdin Unix.stdout Unix.stderr
      in
      match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> code | _ -> 1)
    0 cat.workloads

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0 and trace = ref 0 and json = ref "" in
  let usage = "main.exe --workload NAME|all --seed N [--seconds S] [--trace 0|1] [--json FILE]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME a workload of BENCHMARK.json, or all");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_int seconds, "S measured time per run (default: BENCHMARK.json's run_seconds)");
      ("--trace", Arg.Set_int trace, "0|1 1: traced passes and per-layer metrics");
      ("--json", Arg.Set_string json, "FILE also write the full result as JSON");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  let cat = catalogue () in
  let seconds = if !seconds = 0 then cat.run_seconds else !seconds in
  if seconds < 1 then fail "--seconds must be positive";
  let trace = !trace = 1 in
  exit
    (if !workload = "all" then run_all ~cat ~seed:!seed ~seconds ~trace ~json:!json
     else
       match List.find_opt (fun (w : Workloads.workload) -> w.name = !workload) Workloads.all with
       | Some w when List.mem w.name cat.workloads ->
           run_workload w ~cat ~seed:!seed ~seconds ~trace ~json:!json
       | _ ->
           fail "unknown workload %S; BENCHMARK.json declares: %s" !workload
             (String.concat ", " cat.workloads))
