(* Tests for the discrete-event simulation kernel. *)

open Symbad_sim

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Time --- *)

let time_units () =
  check "us" 1_000 (Time.to_ns (Time.us 1));
  check "ms" 1_000_000 (Time.to_ns (Time.ms 1));
  check "s" 1_000_000_000 (Time.to_ns (Time.s 1));
  check "cycles" 250 (Time.to_ns (Time.of_cycles ~period_ns:25 10))

let time_arith () =
  check "add" 30 (Time.to_ns (Time.add (Time.ns 10) (Time.ns 20)));
  check "sub" 5 (Time.to_ns (Time.sub (Time.ns 15) (Time.ns 10)));
  check_bool "lt" true Time.(ns 3 < ns 4);
  check_bool "le eq" true Time.(ns 4 <= ns 4);
  Alcotest.(check string) "pp s" "2s" (Time.to_string (Time.s 2));
  Alcotest.(check string) "pp ms" "5ms" (Time.to_string (Time.ms 5));
  Alcotest.(check string) "pp mixed" "1001ns" (Time.to_string (Time.ns 1001))

(* --- Event queue --- *)

let event_queue_order () =
  let q = Event_queue.create ~dummy_payload:(-1) in
  List.iter (fun (t, p) -> Event_queue.push q (Time.ns t) p)
    [ (30, 3); (10, 1); (20, 2); (10, 11); (5, 0) ];
  let order = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, p) ->
        order := p :: !order;
        drain ()
  in
  drain ();
  (* same-time events (10,1) and (10,11) keep insertion order *)
  Alcotest.(check (list int)) "pop order" [ 0; 1; 11; 2; 3 ] (List.rev !order)

let event_queue_growth () =
  let q = Event_queue.create ~dummy_payload:0 in
  for i = 999 downto 0 do
    Event_queue.push q (Time.ns i) i
  done;
  check "length" 1000 (Event_queue.length q);
  let last = ref (-1) in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (t, p) ->
        Alcotest.(check bool) "monotone" true (p > !last);
        check "time=payload" p (Time.to_ns t);
        last := p;
        drain ()
  in
  drain ();
  check_bool "empty" true (Event_queue.is_empty q)

(* --- Kernel & processes --- *)

let kernel_wait_order () =
  let k = Kernel.create () in
  let log = ref [] in
  Kernel.spawn k (fun () ->
      Process.wait (Time.ns 20);
      log := ("a", Time.to_ns (Process.now ())) :: !log);
  Kernel.spawn k (fun () ->
      Process.wait (Time.ns 10);
      log := ("b", Time.to_ns (Process.now ())) :: !log);
  Kernel.run k;
  Alcotest.(check (list (pair string int)))
    "order" [ ("b", 10); ("a", 20) ] (List.rev !log)

let kernel_run_until () =
  let k = Kernel.create () in
  let hits = ref 0 in
  Kernel.spawn k (fun () ->
      for _ = 1 to 10 do
        Process.wait (Time.ns 10);
        incr hits
      done);
  Kernel.run ~until:(Time.ns 35) k;
  check "hits before horizon" 3 !hits

let kernel_stop () =
  let k = Kernel.create () in
  let hits = ref 0 in
  Kernel.spawn k (fun () ->
      for _ = 1 to 100 do
        Process.wait (Time.ns 1);
        incr hits;
        if !hits = 5 then Kernel.stop (Process.kernel ())
      done);
  Kernel.run k;
  check "stopped at 5" 5 !hits

let kernel_nested_spawn () =
  let k = Kernel.create () in
  let result = ref 0 in
  Kernel.spawn k (fun () ->
      Process.wait (Time.ns 5);
      Process.spawn (fun () ->
          Process.wait (Time.ns 5);
          result := Time.to_ns (Process.now ())));
  Kernel.run k;
  check "child saw t=10" 10 !result;
  check "two processes" 2 (Kernel.stats k).Kernel.processes

let kernel_halt () =
  let k = Kernel.create () in
  let reached = ref false in
  Kernel.spawn k (fun () ->
      ignore (Process.halt ());
      reached := true);
  Kernel.run k;
  check_bool "statement after halt unreachable" false !reached

let kernel_schedule_direct () =
  let k = Kernel.create () in
  let log = ref [] in
  Kernel.schedule ~delay:(Time.ns 5) k (fun () -> log := 5 :: !log);
  Kernel.schedule_at k (Time.ns 2) (fun () -> log := 2 :: !log);
  Kernel.run k;
  Alcotest.(check (list int)) "order" [ 2; 5 ] (List.rev !log)

let kernel_same_time_fifo_order () =
  let k = Kernel.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Kernel.schedule_at k (Time.ns 10) (fun () -> log := i :: !log)
  done;
  Kernel.run k;
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

(* --- Disposal: the fibers a run leaves blocked are unwound --- *)

let kernel_dispose_unwinds_parked () =
  let k = Kernel.create () in
  let unwound = ref 0 and finished = ref 0 in
  let parked body =
    Kernel.spawn k (fun () ->
        Fun.protect ~finally:(fun () -> incr unwound) body)
  in
  parked (fun () -> Process.suspend (fun _never_resumed -> ()));
  parked (fun () -> ignore (Fifo.get (Fifo.create ())));
  parked (fun () -> Process.wait (Time.ns 100));
  Kernel.spawn k (fun () ->
      Fun.protect
        ~finally:(fun () -> incr finished)
        (fun () -> Process.wait (Time.ns 1)));
  Kernel.run ~until:(Time.ns 10) k;
  check "blocked, not unwound by run" 0 !unwound;
  check "ended normally" 1 !finished;
  Kernel.dispose k;
  check "suspend, fifo get and wait past the horizon" 3 !unwound;
  check "ended process untouched" 1 !finished;
  Kernel.dispose k;
  check "second dispose does nothing" 3 !unwound;
  Kernel.run k;
  check "nothing left to run" 10 (Time.to_ns (Kernel.now k))

(* A is unwound first.  Its [finally] wakes B, which moves B from the
   suspensions to the queue, reads the clock (a non-blocking effect, still
   answered), and then waits: the wait is discontinued at once, before
   B's turn, and B is unwound on the next round. *)
let kernel_dispose_blocking_finally () =
  let k = Kernel.create () in
  let wake = Fifo.create () in
  let log = ref [] in
  let say s = log := s :: !log in
  Kernel.spawn k (fun () ->
      Fun.protect
        ~finally:(fun () ->
          Fifo.put wake ();
          say (Printf.sprintf "a unwinds at %dns" (Time.to_ns (Process.now ())));
          Fun.protect
            ~finally:(fun () -> say "a's wait discontinued")
            (fun () -> Process.wait (Time.ns 1));
          say "a waited")
        (fun () -> Process.suspend (fun _never_resumed -> ())));
  Kernel.spawn k (fun () ->
      Fun.protect
        ~finally:(fun () -> say "b unwinds")
        (fun () ->
          Fifo.get wake;
          say "b woke"));
  Kernel.run k;
  Kernel.dispose k;
  Alcotest.(check (list string))
    "unwound in order, no wait completed"
    [ "a unwinds at 0ns"; "a's wait discontinued"; "b unwinds" ]
    (List.rev !log)

(* --- Fifo --- *)

let fifo_fifo_order () =
  let k = Kernel.create () in
  let f = Fifo.create () in
  let got = ref [] in
  Kernel.spawn k (fun () -> List.iter (Fifo.put f) [ 1; 2; 3 ]);
  Kernel.spawn k (fun () ->
      for _ = 1 to 3 do
        got := Fifo.get f :: !got
      done);
  Kernel.run k;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !got)

let fifo_blocking_capacity () =
  let k = Kernel.create () in
  let f = Fifo.create ~capacity:1 () in
  let put_times = ref [] in
  Kernel.spawn k (fun () ->
      for i = 1 to 3 do
        Fifo.put f i;
        put_times := Time.to_ns (Process.now ()) :: !put_times
      done);
  Kernel.spawn k (fun () ->
      for _ = 1 to 3 do
        Process.wait (Time.ns 10);
        ignore (Fifo.get f)
      done);
  Kernel.run k;
  (* puts 2 and 3 wait for the consumer's gets at t=10 and t=20 *)
  Alcotest.(check (list int)) "put times" [ 0; 10; 20 ] (List.rev !put_times);
  let o = Fifo.occupancy f in
  check "puts" 3 o.Fifo.puts;
  check "gets" 3 o.Fifo.gets;
  check "max occupancy" 1 o.Fifo.max_occupancy

let fifo_injected_loss () =
  let k = Kernel.create () in
  let f = Fifo.create () in
  (* drop write attempts 0 and 2; attempts count every put *)
  Fifo.set_loss f (Some (fun i -> i = 0 || i = 2));
  let got = ref [] in
  Kernel.spawn k (fun () ->
      Fifo.put f 10;
      (* lost silently *)
      Fifo.put f 11;
      Fifo.put f 12;
      (* lost too: the producer cannot observe an injected loss *)
      Fifo.put f 13);
  Kernel.spawn k (fun () ->
      got := Fifo.get f :: !got;
      got := Fifo.get f :: !got);
  Kernel.run k;
  Alcotest.(check (list int)) "delivered" [ 11; 13 ] (List.rev !got);
  check "drops" 2 (Fifo.drops f);
  (* restoring reliability stops the dropping *)
  Fifo.set_loss f None;
  let k2 = Kernel.create () in
  Kernel.spawn k2 (fun () -> Fifo.put f 14);
  Kernel.run k2;
  check "no further drops" 2 (Fifo.drops f)

let fifo_rejects_negative_capacity () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Fifo.create: negative capacity") (fun () ->
      ignore (Fifo.create ~capacity:(-1) ()))

(* --- Trace --- *)

let trace_streams () =
  let t = Trace.create () in
  Trace.record t ~time:Time.zero ~source:"A" ~label:"x" "1";
  Trace.record t ~time:(Time.ns 5) ~source:"A" ~label:"x" "2";
  Trace.record t ~time:(Time.ns 9) ~source:"B" ~label:"y" "9";
  Alcotest.(check (list string)) "stream A.x" [ "1"; "2" ]
    (Trace.stream_of t ~source:"A" ~label:"x");
  Alcotest.(check int) "entries" 3 (Trace.length t);
  Alcotest.(check (list (pair string string)))
    "sources" [ ("A", "x"); ("B", "y") ] (Trace.sources t)

let trace_compare_ignores_time () =
  let a = Trace.create () and b = Trace.create () in
  Trace.record a ~time:Time.zero ~source:"A" ~label:"x" "1";
  Trace.record b ~time:(Time.ms 3) ~source:"A" ~label:"x" "1";
  Alcotest.(check bool) "equal data" true
    (Trace.equal_data ~reference:a ~actual:b)

let trace_compare_finds_mismatch () =
  let a = Trace.create () and b = Trace.create () in
  Trace.record a ~time:Time.zero ~source:"A" ~label:"x" "1";
  Trace.record a ~time:Time.zero ~source:"A" ~label:"x" "2";
  Trace.record b ~time:Time.zero ~source:"A" ~label:"x" "1";
  Trace.record b ~time:Time.zero ~source:"A" ~label:"x" "999";
  match Trace.compare_data ~reference:a ~actual:b with
  | [ m ] ->
      Alcotest.(check int) "index" 1 m.Trace.index;
      Alcotest.(check (option string)) "expected" (Some "2") m.Trace.expected;
      Alcotest.(check (option string)) "actual" (Some "999") m.Trace.actual
  | ms -> Alcotest.failf "expected 1 mismatch, got %d" (List.length ms)

let trace_compare_finds_missing () =
  let a = Trace.create () and b = Trace.create () in
  Trace.record a ~time:Time.zero ~source:"A" ~label:"x" "1";
  Trace.record a ~time:Time.zero ~source:"A" ~label:"x" "2";
  Trace.record b ~time:Time.zero ~source:"A" ~label:"x" "1";
  match Trace.compare_data ~reference:a ~actual:b with
  | [ m ] -> Alcotest.(check (option string)) "missing" None m.Trace.actual
  | ms -> Alcotest.failf "expected 1 mismatch, got %d" (List.length ms)

(* qcheck: the event queue dequeues any pushed multiset in nondecreasing
   time order. *)
let qcheck_event_queue =
  QCheck.Test.make ~name:"event queue sorts by time" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Event_queue.create ~dummy_payload:0 in
      List.iter (fun t -> Event_queue.push q (Time.ns t) t) times;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (_, p) -> drain (p :: acc)
      in
      (* payload = time, so sorted-by-time equals plain sort *)
      drain [] = List.sort compare times)

let qcheck_fifo_preserves_order =
  QCheck.Test.make ~name:"fifo preserves order under random capacity"
    ~count:100
    QCheck.(pair (int_bound 5) (small_list small_int))
    (fun (cap, items) ->
      let k = Kernel.create () in
      let f = Fifo.create ~capacity:cap () in
      let got = ref [] in
      Kernel.spawn k (fun () -> List.iter (Fifo.put f) items);
      Kernel.spawn k (fun () ->
          for _ = 1 to List.length items do
            got := Fifo.get f :: !got
          done);
      Kernel.run k;
      List.rev !got = items)

let suite =
  [
    Alcotest.test_case "time units" `Quick time_units;
    Alcotest.test_case "time arithmetic and printing" `Quick time_arith;
    Alcotest.test_case "event queue ordering" `Quick event_queue_order;
    Alcotest.test_case "event queue growth" `Quick event_queue_growth;
    Alcotest.test_case "kernel wait ordering" `Quick kernel_wait_order;
    Alcotest.test_case "kernel run until horizon" `Quick kernel_run_until;
    Alcotest.test_case "kernel stop" `Quick kernel_stop;
    Alcotest.test_case "nested spawn" `Quick kernel_nested_spawn;
    Alcotest.test_case "process halt" `Quick kernel_halt;
    Alcotest.test_case "kernel schedule helpers" `Quick kernel_schedule_direct;
    Alcotest.test_case "kernel dispose unwinds parked fibers" `Quick
      kernel_dispose_unwinds_parked;
    Alcotest.test_case "kernel dispose discontinues a blocking finally" `Quick
      kernel_dispose_blocking_finally;
    Alcotest.test_case "same-time events keep order" `Quick
      kernel_same_time_fifo_order;
    Alcotest.test_case "fifo order" `Quick fifo_fifo_order;
    Alcotest.test_case "fifo blocking at capacity" `Quick fifo_blocking_capacity;
    Alcotest.test_case "fifo injected loss" `Quick fifo_injected_loss;
    Alcotest.test_case "fifo rejects negative capacity" `Quick
      fifo_rejects_negative_capacity;
    Alcotest.test_case "trace streams" `Quick trace_streams;
    Alcotest.test_case "trace comparison ignores time" `Quick
      trace_compare_ignores_time;
    Alcotest.test_case "trace comparison finds mismatch" `Quick
      trace_compare_finds_mismatch;
    Alcotest.test_case "trace comparison finds missing entries" `Quick
      trace_compare_finds_missing;
    QCheck_alcotest.to_alcotest qcheck_event_queue;
    QCheck_alcotest.to_alcotest qcheck_fifo_preserves_order;
  ]
