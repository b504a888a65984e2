(* The process-wide telemetry switchboard.

   Instrumentation all over the stack (kernel, bus, solver, FPGA, flow)
   talks to one recorder — a tracer plus a metrics registry — behind a
   single [enabled] flag.  When telemetry is off every instrumentation
   site reduces to one branch on [Obs.enabled ()] — no allocation, no
   registry traffic — which keeps the simulation hot paths at their
   uninstrumented speed.

   A recorder is not safe for concurrent mutation, so each one belongs
   to one domain.  The owner domain (the one that last called
   [set_enabled true]) records into the global pair; a Par job records
   into a fresh pair installed in its domain's DLS slot
   ([with_recorder]), and Par folds the job pairs back in job order at
   the fan-in ([Tracer.absorb], [Metrics.absorb]), so merged metrics
   are identical at any pool width.  A domain that is neither the owner
   nor running a job drops the emission and counts it
   ([dropped_count]) so the CLI can warn instead of silently
   under-reporting. *)

let enabled_flag = Atomic.make false
let owner = ref (Domain.self ())

let global = ref (Tracer.create (), Metrics.create ())

(* the job recorder installed by [with_recorder] *)
let job_key : (Tracer.t * Metrics.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let dropped = Atomic.make 0
let dropped_count () = Atomic.get dropped

let note_drop () =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add dropped 1)

let recorder () =
  if not (Atomic.get enabled_flag) then None
  else
    match Domain.DLS.get job_key with
    | Some _ as r -> r
    | None -> if Domain.self () = !owner then Some !global else None

let enabled () = Option.is_some (recorder ())

let set_enabled b =
  if b then owner := Domain.self ();
  Atomic.set enabled_flag b

let tracer () = fst !global
let metrics () = snd !global

let reset () =
  global := (Tracer.create (), Metrics.create ());
  Atomic.set dropped 0

let with_recorder tracer metrics f =
  let old = Domain.DLS.get job_key in
  Domain.DLS.set job_key (Some (tracer, metrics));
  Fun.protect ~finally:(fun () -> Domain.DLS.set job_key old) f

(* --- events --- *)

let event ?(severity = Severity.Info) ?args ?sim_ns name =
  match recorder () with
  | None -> note_drop ()
  | Some (t, _) ->
      if Severity.compare severity Severity.Info >= 0 then
        Tracer.instant t ~severity ?args ?sim_ns name

(* --- spans --- *)

type span = No_span | Span of Tracer.t * Tracer.span

let null_span = No_span

let begin_span ?track ?cat ?args ?sim_ns name =
  match recorder () with
  | None ->
      note_drop ();
      No_span
  | Some (t, _) -> Span (t, Tracer.begin_span t ?track ?cat ?args ?sim_ns name)

let end_span ?args ?sim_ns = function
  | No_span -> ()
  | Span (t, s) -> Tracer.end_span t ?args ?sim_ns s

let span ?track ?cat ?args name f =
  match recorder () with
  | None ->
      note_drop ();
      f ()
  | Some (t, _) -> Tracer.with_span t ?track ?cat ?args name f

(* --- metric conveniences (registry lookup per call; fine off the hot
   path, hot paths should flush deltas at quiescent points) --- *)

let incr_counter ?(by = 1) name =
  match recorder () with
  | None -> note_drop ()
  | Some (_, m) -> Metrics.incr ~by (Metrics.counter m name)

let set_gauge ?x name v =
  match recorder () with
  | None -> note_drop ()
  | Some (_, m) -> Metrics.set ?x (Metrics.gauge m name) v

let observe name v =
  match recorder () with
  | None -> note_drop ()
  | Some (_, m) -> Metrics.observe (Metrics.histogram m name) v
