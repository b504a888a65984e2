(* The discrete-event scheduler.

   Processes are ordinary OCaml functions executed as fibers: blocking
   primitives ([Process.wait], FIFO get/put, ...) perform effects that the
   scheduler interprets by parking the continuation and resuming it when the
   corresponding event fires.  This mirrors the SystemC process model the
   paper's level-1..3 descriptions are written in. *)

module Obs = Symbad_obs.Obs
module Json = Symbad_obs.Json

type action = unit -> unit

type t = {
  mutable now : Time.t;
  queue : action Event_queue.t;
  mutable events_processed : int;
  mutable processes_spawned : int;
  mutable stop_requested : bool;
  mutable run_cpu_seconds : float;
}

type stats = {
  events : int;
  processes : int;
  final_time : Time.t;
  cpu_seconds : float;
}

exception Halted
(* Raised (internally) to terminate the current process. *)

type _ Effect.t +=
  | Wait : Time.t -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Get_kernel : t Effect.t

let create () =
  {
    now = Time.zero;
    queue = Event_queue.create ~dummy_payload:(fun () -> ());
    events_processed = 0;
    processes_spawned = 0;
    stop_requested = false;
    run_cpu_seconds = 0.;
  }

let now k = k.now

let schedule ?(delay = Time.zero) k action =
  Event_queue.push k.queue (Time.add k.now delay) action

let schedule_at k time action = Event_queue.push k.queue time action

let stop k = k.stop_requested <- true

let exec_fiber k body =
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> ());
      exnc = (function Halted -> () | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait d ->
              Some
                (fun (cont : (a, _) continuation) ->
                  schedule_at k (Time.add k.now d) (fun () ->
                      continue cont ()))
          | Suspend register ->
              Some
                (fun (cont : (a, _) continuation) ->
                  let resumed = ref false in
                  register (fun () ->
                      if not !resumed then begin
                        resumed := true;
                        schedule_at k k.now (fun () -> continue cont ())
                      end))
          | Get_kernel ->
              Some (fun (cont : (a, _) continuation) -> continue cont k)
          | _ -> None);
    }

let spawn k body =
  k.processes_spawned <- k.processes_spawned + 1;
  if Obs.enabled () then Obs.incr_counter "sim.processes_spawned";
  schedule k (fun () -> exec_fiber k body)

let run ?until k =
  let t0 = Sys.time () in
  let events0 = k.events_processed in
  let sim0 = Time.to_ns k.now in
  let sp =
    if Obs.enabled () then
      Obs.begin_span ~cat:"sim" ~sim_ns:sim0 "kernel.run"
    else Obs.null_span
  in
  let within time =
    match until with None -> true | Some limit -> Time.(time <= limit)
  in
  let rec loop () =
    if k.stop_requested then ()
    else
      match Event_queue.pop k.queue with
      | None -> ()
      | Some (time, action) ->
          if within time then begin
            k.now <- time;
            k.events_processed <- k.events_processed + 1;
            action ();
            loop ()
          end
          else
            (* leave the event consumed; clamp the clock at the horizon *)
            match until with
            | Some limit -> k.now <- limit
            | None -> ()
  in
  (* accumulate host time even when an action escapes with [Halted],
     an uncaught model exception, or a [stop] request *)
  let finish () =
    let dt = Sys.time () -. t0 in
    k.run_cpu_seconds <- k.run_cpu_seconds +. dt;
    if Obs.enabled () then begin
      let dispatched = k.events_processed - events0 in
      let sim_ns = Time.to_ns k.now in
      (* through the facade, never the registry directly: a kernel run
         inside a Par job must land in the job's recorder *)
      Obs.incr_counter ~by:dispatched "sim.events_dispatched";
      Obs.incr_counter ~by:(int_of_float (dt *. 1e6)) "sim.cpu_us";
      if dt > 0. then
        Obs.set_gauge "sim.wall_sim_ratio"
          (float_of_int (sim_ns - sim0) /. 1e9 /. dt);
      Obs.end_span
        ~args:[ ("events", Json.Int dispatched) ]
        ~sim_ns sp
    end
  in
  Fun.protect ~finally:finish loop

let stats k =
  {
    events = k.events_processed;
    processes = k.processes_spawned;
    final_time = k.now;
    cpu_seconds = k.run_cpu_seconds;
  }

let pp_stats fmt s =
  Fmt.pf fmt "events=%d processes=%d time=%a cpu=%.3fs" s.events s.processes
    Time.pp s.final_time s.cpu_seconds
