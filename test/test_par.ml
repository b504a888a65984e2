(* Tests for the parallel job engine: the determinism contract (map at
   any pool width equals List.map), exception propagation, shutdown
   semantics, seed splitting, pool telemetry, and the
   parallel-equals-sequential property for the verification fan-outs
   that ride on it (PCC, model checking, exploration sweeps). *)

open Symbad_obs
open Symbad_core
module Par = Symbad_par.Par

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))
let widths = [ 1; 2; 8 ]

(* --- the determinism contract --- *)

let map_determinism () =
  let xs = List.init 100 Fun.id in
  let f x = (x * 37) mod 91 in
  let expect = List.map f xs in
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun pool ->
          check_ints (Printf.sprintf "jobs=%d" jobs) expect (Par.map pool f xs)))
    widths;
  Par.with_pool ~jobs:4 (fun pool ->
      check_ints "empty" [] (Par.map pool f []);
      check_ints "singleton" [ f 7 ] (Par.map pool f [ 7 ]))

(* nested maps share the one queue; the inner map's caller keeps taking
   jobs, so this must complete at width 2 (regression for deadlock) *)
let nested_maps () =
  Par.with_pool ~jobs:2 (fun pool ->
      let triangle x =
        List.fold_left ( + ) 0 (Par.map pool Fun.id (List.init x Fun.id))
      in
      check_ints "nested"
        (List.map (fun x -> x * (x - 1) / 2) (List.init 8 (fun i -> i + 1)))
        (Par.map pool triangle (List.init 8 (fun i -> i + 1))))

(* --- failure semantics --- *)

exception Boom of int

let exception_propagation () =
  Par.with_pool ~jobs:4 (fun pool ->
      (match
         Par.map pool
           (fun x -> if x = 13 then raise (Boom x) else x)
           (List.init 64 Fun.id)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 13 -> ());
      (* the pool survives a failed batch *)
      check_ints "pool survives" [ 2; 4 ] (Par.map pool (fun x -> 2 * x) [ 1; 2 ]))

let shutdown_semantics () =
  let pool = Par.create ~jobs:2 () in
  check_int "width" 2 (Par.jobs pool);
  check_ints "before shutdown" [ 1; 2; 3 ] (Par.map pool Fun.id [ 1; 2; 3 ]);
  Par.shutdown pool;
  Par.shutdown pool;
  (* idempotent *)
  match Par.map pool Fun.id [ 1 ] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ()

(* --- seed splitting --- *)

let seed_split_independence () =
  let seeds = List.init 1000 (Par.split_seed ~seed:42) in
  List.iter (fun s -> check_bool "positive" true (s > 0)) seeds;
  let module S = Set.Make (Int) in
  check_int "all lanes distinct" 1000 (S.cardinal (S.of_list seeds));
  check_bool "master-seed dependent" true
    (Par.split_seed ~seed:1 0 <> Par.split_seed ~seed:2 0)

(* --- telemetry --- *)

let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let pool_telemetry () =
  with_obs (fun () ->
      Par.with_pool ~jobs:2 (fun pool ->
          ignore (Par.map ~label:"test.batch" pool Fun.id (List.init 16 Fun.id)));
      let m = Obs.metrics () in
      (match Metrics.find_counter m "par.jobs_dispatched" with
      | Some n -> check_bool "chunks dispatched" true (n > 0)
      | None -> Alcotest.fail "par.jobs_dispatched not recorded");
      (match Metrics.find_histogram m "par.queue_wait_us" with
      | Some _ -> ()
      | None -> Alcotest.fail "par.queue_wait_us not recorded");
      (* one dispatch span on the "par" track plus one merged job span
         per chunk (16 items -> 16 chunks), each on a lane track and
         parent-linked to the dispatch span *)
      let spans = Tracer.spans_with_cat (Obs.tracer ()) "par" in
      check_int "dispatch + 16 job spans" 17 (List.length spans);
      let dispatch =
        List.find (fun s -> String.equal s.Tracer.name "test.batch.dispatch") spans
      in
      check_bool "dispatch on the par track" true
        (String.equal dispatch.Tracer.track "par");
      let jobs =
        List.filter (fun s -> String.equal s.Tracer.name "test.batch") spans
      in
      check_int "16 job spans" 16 (List.length jobs);
      List.iter
        (fun (s : Tracer.completed) ->
          check_bool "job on a lane track" true
            (String.length s.Tracer.track >= 4
            && String.sub s.Tracer.track 0 4 = "lane");
          check_bool "job parented to the dispatch span" true
            (s.Tracer.parent = Some dispatch.Tracer.id))
        jobs)

(* Two jobs forced to run concurrently on distinct domains: each spins
   until both have started (bounded by a timeout escape so a pathological
   scheduler cannot hang the suite), so the calling domain takes exactly
   one chunk and a worker domain the other. *)
let rendezvous pool name =
  let started = Atomic.make 0 in
  Par.map ~label:name pool
    (fun _ ->
      Atomic.incr started;
      let t0 = Unix.gettimeofday () in
      while Atomic.get started < 2 && Unix.gettimeofday () -. t0 < 5. do
        Domain.cpu_relax ()
      done;
      Obs.incr_counter (name ^ ".work");
      Par.current_lane ())
    [ 0; 1 ]

(* Emissions from the worker domain reach the merged registry: the
   counter sees both lanes, and nothing is dropped. *)
let worker_telemetry_merged () =
  with_obs (fun () ->
      let lanes = Par.with_pool ~jobs:2 (fun pool -> rendezvous pool "rv") in
      check_bool "two distinct lanes" true
        (match lanes with [ a; b ] -> a <> b | _ -> false);
      check_int "no emission dropped" 0 (Obs.dropped_count ());
      check_int "both lanes counted" 2
        (Option.value ~default:0
           (Metrics.find_counter (Obs.metrics ()) "rv.work")))

(* Chrome-trace parse-back: the exported timeline must show one thread
   per lane, the job spans on (at least) two distinct lane threads, each
   parent-linked to the dispatch span, with flow arrows for the links. *)
let merged_trace_parse_back () =
  with_obs (fun () ->
      ignore (Par.with_pool ~jobs:2 (fun pool -> rendezvous pool "rvt"));
      let doc = Json.parse_exn (Tracer.to_chrome_json (Obs.tracer ())) in
      let events =
        match Option.bind (Json.member "traceEvents" doc) Json.to_list with
        | Some es -> es
        | None -> Alcotest.fail "no traceEvents"
      in
      let str k e = Option.bind (Json.member k e) Json.to_str in
      let num k e = Option.bind (Json.member k e) Json.to_number in
      let arg k e = Option.bind (Json.member "args" e) (Json.member k) in
      let lane_tids =
        List.filter_map
          (fun e ->
            match (str "ph" e, Option.bind (arg "name" e) Json.to_str) with
            | Some "M", Some label
              when String.length label >= 4 && String.sub label 0 4 = "lane" ->
                Option.map (fun tid -> (int_of_float tid, label)) (num "tid" e)
            | _ -> None)
          events
      in
      check_bool "at least two lane threads" true (List.length lane_tids >= 2);
      let xs = List.filter (fun e -> str "ph" e = Some "X") events in
      let jobs = List.filter (fun e -> str "name" e = Some "rvt") xs in
      let dispatch =
        List.find (fun e -> str "name" e = Some "rvt.dispatch") xs
      in
      let dispatch_id = Option.bind (arg "span_id" dispatch) Json.to_number in
      check_int "two job spans" 2 (List.length jobs);
      let job_tids =
        List.sort_uniq compare
          (List.filter_map (fun e -> num "tid" e) jobs)
      in
      check_int "job spans on two distinct lane threads" 2
        (List.length job_tids);
      List.iter
        (fun tid ->
          check_bool "job thread is a lane thread" true
            (List.mem_assoc (int_of_float tid) lane_tids))
        job_tids;
      List.iter
        (fun e ->
          check_bool "job parent-linked to dispatch" true
            (Option.bind (arg "parent_span_id" e) Json.to_number = dispatch_id))
        jobs;
      let arrows ph =
        List.filter_map
          (fun e ->
            if str "ph" e = Some ph then num "id" e else None)
          events
      in
      List.iter
        (fun e ->
          let id = Option.bind (arg "span_id" e) Json.to_number in
          check_bool "flow arrow start exists" true
            (List.exists (fun i -> Some i = id) (arrows "s"));
          check_bool "flow arrow end exists" true
            (List.exists (fun i -> Some i = id) (arrows "f")))
        jobs)

(* Nested maps fold back through the same two calls: inner jobs hang
   under their inner dispatch span, which hangs under the outer job that
   ran it, and each of those par -> par links gets a flow arrow. *)
let nested_map_telemetry () =
  with_obs (fun () ->
      Par.with_pool ~jobs:2 (fun pool ->
          ignore
            (Par.map ~label:"outer" pool
               (fun i -> Par.map ~label:"inner" pool succ [ i; i + 1 ])
               [ 0; 1 ]));
      let spans = Tracer.completed_spans (Obs.tracer ()) in
      let by_id = Hashtbl.create 16 in
      List.iter (fun s -> Hashtbl.replace by_id s.Tracer.id s) spans;
      let parent_name s =
        Option.map (fun p -> (Hashtbl.find by_id p).Tracer.name) s.Tracer.parent
      in
      let under name parent =
        let named = List.filter (fun s -> s.Tracer.name = name) spans in
        List.iter
          (fun s ->
            check_bool (name ^ " under " ^ parent) true
              (parent_name s = Some parent))
          named;
        List.length named
      in
      check_int "outer jobs" 2 (under "outer" "outer.dispatch");
      check_int "inner dispatches" 2 (under "inner.dispatch" "outer");
      check_int "inner jobs" 4 (under "inner" "inner.dispatch");
      let doc = Json.parse_exn (Tracer.to_chrome_json (Obs.tracer ())) in
      let arrows =
        match Option.bind (Json.member "traceEvents" doc) Json.to_list with
        | Some es ->
            List.filter
              (fun e -> Option.bind (Json.member "ph" e) Json.to_str = Some "s")
              es
        | None -> []
      in
      check_int "one arrow per par link" 8 (List.length arrows))

(* qcheck: the merged telemetry is pool-width invariant — the span
   structure (ids, parents, names, cats, depths) and the deterministic
   metric figures hash identically at any width.  The probe dispatches
   from inside an open span, so the hash covers the dispatch span's
   parent too. *)
let telemetry_probe pool =
  Obs.span ~cat:"q" "q.caller" (fun () ->
      ignore
        (Par.map ~label:"q.map" pool
           (fun i ->
             Obs.span ~cat:"q" "q.work" (fun () ->
                 Obs.incr_counter ~by:(i + 1) "q.count";
                 Obs.observe "q.depth_ns" (i * 100);
                 i * 3))
           (List.init 24 Fun.id)))

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.sub s (ls - lf) lf = suf

let telemetry_digest () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (s : Tracer.completed) ->
      Buffer.add_string buf
        (Printf.sprintf "%d|%s|%s|%d|%s;" s.Tracer.id s.Tracer.cat
           s.Tracer.name s.Tracer.depth
           (match s.Tracer.parent with
           | None -> "-"
           | Some p -> string_of_int p)))
    (Tracer.completed_spans (Obs.tracer ()));
  let m = Obs.metrics () in
  List.iter
    (fun n ->
      match Metrics.find_counter m n with
      | Some v when not (has_suffix n "_us") ->
          Buffer.add_string buf (Printf.sprintf "%s=%d;" n v)
      | _ -> (
          match Metrics.find_histogram m n with
          | Some h ->
              Buffer.add_string buf
                (Printf.sprintf "%s#%d%s;" n (Histogram.count h)
                   (if has_suffix n "_us" then ""
                    else Printf.sprintf "/%.0f" (Histogram.sum h)))
          | None -> ()))
    (List.sort compare (Metrics.names m));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let qcheck_telemetry_width_invariant =
  let reference =
    lazy
      (with_obs (fun () ->
           Par.with_pool ~jobs:1 telemetry_probe;
           telemetry_digest ()))
  in
  QCheck.Test.make ~count:8
    ~name:"merged telemetry md5 is pool-width invariant"
    QCheck.(int_range 1 6)
    (fun jobs ->
      let d =
        with_obs (fun () ->
            Par.with_pool ~jobs telemetry_probe;
            telemetry_digest ())
      in
      String.equal d (Lazy.force reference))

let progress_reaches_caller () =
  let calls = ref [] in
  Par.with_pool ~jobs:2 (fun pool ->
      ignore
        (Par.map
           ~progress:(fun ~completed ~total ->
             calls := (completed, total) :: !calls)
           pool Fun.id (List.init 32 Fun.id)));
  check_bool "progress called" true (!calls <> []);
  let completed, total = List.hd !calls in
  check_int "final completed" total completed;
  check_bool "monotone" true
    (let cs = List.rev_map fst !calls in
     List.sort compare cs = cs)

(* --- parallel equals sequential on the real fan-outs --- *)

let find_module name =
  List.find
    (fun (m : Level4.rtl_module) -> String.equal m.Level4.module_name name)
    (Level4.modules ())

let pcc_parallel_equals_sequential () =
  let m = find_module "WRAPPER" in
  let seq = Symbad_pcc.Pcc.run ~depth:4 m.Level4.netlist m.Level4.properties in
  Par.with_pool ~jobs:3 (fun pool ->
      let par =
        Symbad_pcc.Pcc.run ~pool ~depth:4 m.Level4.netlist m.Level4.properties
      in
      check_bool "identical PCC reports" true (par = seq))

let mc_parallel_equals_sequential () =
  let m = find_module "DISTANCE" in
  let seq =
    Symbad_mc.Engine.check_all ~max_depth:12 m.Level4.netlist
      m.Level4.properties
  in
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun pool ->
          let par =
            Symbad_mc.Engine.check_all ~pool ~max_depth:12 m.Level4.netlist
              m.Level4.properties
          in
          check_bool
            (Printf.sprintf "identical MC reports jobs=%d" jobs)
            true (par = seq)))
    [ 2; 5 ]

let atpg_parallel_equals_sequential () =
  let model = List.hd (Symbad_atpg.Models.all ()) in
  let params =
    {
      Symbad_atpg.Genetic_engine.default_params with
      Symbad_atpg.Genetic_engine.generations = 60;
      population = 8;
    }
  in
  let seq = Symbad_atpg.Genetic_engine.generate ~params model in
  Par.with_pool ~jobs:3 (fun pool ->
      let par = Symbad_atpg.Genetic_engine.generate ~pool ~params model in
      check_bool "identical ATPG suites" true (par = seq);
      check_bool "identical evaluations" true
        (Symbad_atpg.Testbench.evaluate ~pool ~engine:"genetic" model par
        = Symbad_atpg.Testbench.evaluate ~engine:"genetic" model seq))

(* qcheck: the PCC verdict is pool-width invariant for arbitrary widths
   and analysis depths — the acceptance property of the engine *)
let qcheck_pcc_width_invariant =
  QCheck.Test.make ~count:6 ~name:"PCC report is pool-width invariant"
    QCheck.(pair (int_range 2 6) (int_range 2 3))
    (fun (jobs, depth) ->
      let m = find_module "WRAPPER" in
      let seq = Symbad_pcc.Pcc.run ~depth m.Level4.netlist m.Level4.properties in
      Par.with_pool ~jobs (fun pool ->
          Symbad_pcc.Pcc.run ~pool ~depth m.Level4.netlist m.Level4.properties
          = seq))

let qcheck_map_is_list_map =
  QCheck.Test.make ~count:50 ~name:"Par.map equals List.map"
    QCheck.(pair (list small_int) (int_range 1 8))
    (fun (xs, jobs) ->
      let f x = (x * x) + 1 in
      Par.with_pool ~jobs (fun pool -> Par.map pool f xs = List.map f xs))

let suite =
  [
    Alcotest.test_case "map determinism across widths" `Quick map_determinism;
    Alcotest.test_case "nested maps do not deadlock" `Quick nested_maps;
    Alcotest.test_case "exception propagation" `Quick exception_propagation;
    Alcotest.test_case "shutdown semantics" `Quick shutdown_semantics;
    Alcotest.test_case "seed split independence" `Quick seed_split_independence;
    Alcotest.test_case "pool telemetry" `Quick pool_telemetry;
    Alcotest.test_case "worker telemetry merged" `Quick worker_telemetry_merged;
    Alcotest.test_case "merged trace parses back" `Quick merged_trace_parse_back;
    Alcotest.test_case "nested map telemetry" `Quick nested_map_telemetry;
    QCheck_alcotest.to_alcotest qcheck_telemetry_width_invariant;
    Alcotest.test_case "progress reaches the caller" `Quick
      progress_reaches_caller;
    Alcotest.test_case "parallel PCC equals sequential" `Quick
      pcc_parallel_equals_sequential;
    Alcotest.test_case "parallel MC equals sequential" `Quick
      mc_parallel_equals_sequential;
    Alcotest.test_case "parallel ATPG equals sequential" `Quick
      atpg_parallel_equals_sequential;
    QCheck_alcotest.to_alcotest qcheck_pcc_width_invariant;
    QCheck_alcotest.to_alcotest qcheck_map_is_list_map;
  ]
