(* A Domain-based work pool with deterministic in-order reduction.

   One shared FIFO of chunk jobs, [width - 1] worker domains, and a
   calling domain that is itself a full lane: [map] enqueues its chunks
   and then drains the queue until its own batch completes, so a
   [jobs = 1] pool runs the identical code with zero workers and the
   parallel result is the sequential result by construction.

   Telemetry crosses domains through per-job recorders: when telemetry
   is on, [map] runs each chunk under [Obs.with_recorder] with a fresh
   tracer and registry (a job-root span plus every emission the job
   makes) and absorbs them back in chunk-index order at the fan-in,
   parented to the dispatch span and placed on a per-lane track — so
   traces show one lane per executing domain while the merged metrics
   are identical at any pool width. *)

module Obs = Symbad_obs.Obs
module Json = Symbad_obs.Json
module Tracer = Symbad_obs.Tracer
module Metrics = Symbad_obs.Metrics

type job = { run : unit -> unit  (* must not raise *) }

type pool = {
  width : int;
  mutable workers : unit Domain.t list;
  q : job Queue.t;
  lock : Mutex.t;
  work_available : Condition.t;
  mutable live : bool;
}

let default_jobs () =
  match Sys.getenv_opt "SYMBAD_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* Take the next job, blocking while the pool is live; [None] signals
   the worker to exit. *)
let next_job pool =
  Mutex.lock pool.lock;
  let rec take () =
    match Queue.take_opt pool.q with
    | Some j -> Some j
    | None ->
        if pool.live then begin
          Condition.wait pool.work_available pool.lock;
          take ()
        end
        else None
  in
  let j = take () in
  Mutex.unlock pool.lock;
  j

let rec worker pool =
  match next_job pool with
  | Some j ->
      j.run ();
      worker pool
  | None -> ()

(* Which lane of a pool the current domain is: 0 for the calling domain,
   [1 .. width - 1] for workers.  Labels the per-lane trace tracks. *)
let lane_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let current_lane () = Domain.DLS.get lane_key

let create ?jobs () =
  let width = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  let pool =
    {
      width;
      workers = [];
      q = Queue.create ();
      lock = Mutex.create ();
      work_available = Condition.create ();
      live = true;
    }
  in
  pool.workers <-
    List.init (width - 1) (fun i ->
        Domain.spawn (fun () ->
            Domain.DLS.set lane_key (i + 1);
            worker pool));
  pool

let jobs pool = pool.width

let shutdown pool =
  Mutex.lock pool.lock;
  let workers = pool.workers in
  pool.live <- false;
  pool.workers <- [];
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.lock;
  List.iter Domain.join workers

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let sequential = create ~jobs:1 ()
let get = function Some pool -> pool | None -> sequential

(* --- batched execution ------------------------------------------------ *)

type batch = {
  total : int;
  mutable remaining : int;
  finished : Condition.t;
  waits_us : float array;  (* per-chunk queue wait, for the histogram *)
}

(* Enqueue [thunks] (which record their own results and never raise) and
   drain until they are all done.  The caller keeps taking jobs — of any
   batch, which is what makes nested [map]s on one pool deadlock-free —
   and only blocks when the queue is momentarily empty. *)
let run_chunks pool ?progress thunks =
  if not pool.live then invalid_arg "Par: pool is shut down";
  let total = Array.length thunks in
  let batch =
    {
      total;
      remaining = total;
      finished = Condition.create ();
      waits_us = Array.make total 0.;
    }
  in
  let now_us () = Unix.gettimeofday () *. 1e6 in
  let jobs =
    Array.mapi
      (fun i thunk ->
        let enqueued_us = now_us () in
        {
          run =
            (fun () ->
              batch.waits_us.(i) <- now_us () -. enqueued_us;
              thunk ();
              Mutex.lock pool.lock;
              batch.remaining <- batch.remaining - 1;
              if batch.remaining = 0 then Condition.broadcast batch.finished;
              Mutex.unlock pool.lock);
        })
      thunks
  in
  Mutex.lock pool.lock;
  Array.iter (fun j -> Queue.add j pool.q) jobs;
  Condition.broadcast pool.work_available;
  let reported = ref 0 in
  let report () =
    (* progress runs on the calling domain, outside the pool lock *)
    let completed = batch.total - batch.remaining in
    if completed > !reported then begin
      reported := completed;
      match progress with
      | Some f ->
          Mutex.unlock pool.lock;
          f ~completed ~total;
          Mutex.lock pool.lock
      | None -> ()
    end
  in
  while batch.remaining > 0 do
    match Queue.take_opt pool.q with
    | Some j ->
        Mutex.unlock pool.lock;
        j.run ();
        Mutex.lock pool.lock;
        report ()
    | None ->
        Condition.wait batch.finished pool.lock;
        report ()
  done;
  report ();
  Mutex.unlock pool.lock;
  batch.waits_us

(* --- deterministic fan-out -------------------------------------------- *)

(* The chunk count is a constant, never a function of the pool width:
   chunk-derived telemetry (job spans, [par.jobs_dispatched], the
   queue-wait histogram) must be identical at any [--jobs], the
   invariant `symbad report` is built on.  16 chunks saturate pools up
   to 16 lanes and still load-balance uneven jobs. *)
let max_chunks = 16

let map_array ?(label = "par.map") ?progress pool f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    (* contiguous balanced chunks, reassembled by index so order never
       depends on the pool width *)
    let nchunks = min n max_chunks in
    let results = Array.make n None in
    let errors = Array.make nchunks None in
    let body c () =
      let lo = c * n / nchunks and hi = (c + 1) * n / nchunks in
      try
        for i = lo to hi - 1 do
          results.(i) <- Some (f xs.(i))
        done
      with e -> errors.(c) <- Some (e, Printexc.get_raw_backtrace ())
    in
    (match Obs.recorder () with
    | None -> ignore (run_chunks pool ?progress (Array.init nchunks body))
    | Some (tracer, metrics) ->
        (* each job records into a fresh pair, under a job span named
           [label] on the lane that takes it *)
        let recorders =
          Array.init nchunks (fun _ -> (Tracer.create (), Metrics.create ()))
        in
        let lanes = Array.make nchunks 0 in
        let job c () =
          let jt, jm = recorders.(c) in
          lanes.(c) <- current_lane ();
          Obs.with_recorder jt jm (fun () ->
              Tracer.with_span jt ~cat:"par"
                ~args:
                  [
                    ("chunk", Json.Int c);
                    ("lo", Json.Int (c * n / nchunks));
                    ("hi", Json.Int (((c + 1) * n / nchunks) - 1));
                  ]
                label (body c))
        in
        let dispatch =
          Tracer.begin_span tracer ~track:"par" ~cat:"par"
            ~args:
              [
                ("jobs", Json.Int pool.width);
                ("chunks", Json.Int nchunks);
                ("items", Json.Int n);
              ]
            (label ^ ".dispatch")
        in
        let waits =
          (* an unclosed dispatch span would parent every later span *)
          try run_chunks pool ?progress (Array.init nchunks job)
          with e ->
            Tracer.end_span tracer dispatch;
            raise e
        in
        (* fold the job recorders back in chunk-index order: dispatch
           order, never completion order, so the merge is deterministic *)
        Array.iteri
          (fun c (jt, jm) ->
            Tracer.absorb tracer ~parent:dispatch ~lane:lanes.(c) jt;
            Metrics.absorb metrics jm)
          recorders;
        Metrics.incr ~by:nchunks (Metrics.counter metrics "par.jobs_dispatched");
        let wait_hist = Metrics.histogram metrics "par.queue_wait_us" in
        Array.iter (fun w -> Metrics.observe wait_hist (int_of_float w)) waits;
        Tracer.end_span tracer dispatch);
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
      errors;
    Array.map (function Some r -> r | None -> assert false) results
  end

let map ?label ?progress pool f xs =
  Array.to_list (map_array ?label ?progress pool f (Array.of_list xs))

(* --- seed splitting ---------------------------------------------------- *)

(* splitmix64 finalizer over a (seed, lane) mix: independent streams per
   lane, a function of the indices alone — never of the pool width. *)
let split_seed ~seed i =
  let open Int64 in
  let z =
    add
      (mul (of_int seed) 0x9E3779B97F4A7C15L)
      (mul (of_int (i + 1)) 0xBF58476D1CE4E5B9L)
  in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  (* keep 62 bits: [to_int] of anything wider can wrap negative *)
  let v = to_int (shift_right_logical z 2) in
  if v = 0 then 1 else v
