(* The discrete-event scheduler.

   Processes are ordinary OCaml functions executed as fibers: blocking
   primitives ([Process.wait], FIFO get/put, ...) perform effects that the
   scheduler interprets by parking the continuation and resuming it when the
   corresponding event fires.  This mirrors the SystemC process model the
   paper's level-1..3 descriptions are written in.

   Every parked continuation stays reachable from the kernel — a timed
   wait as a [Resume] event in the queue, a [Suspend] in [parked] until
   someone resumes it — so that [dispose] can unwind the fibers a run
   leaves blocked.  A continuation that is dropped instead keeps its
   fiber stack alive for the rest of the process. *)

module Obs = Symbad_obs.Obs
module Json = Symbad_obs.Json
open Effect.Deep

type event = Run of (unit -> unit) | Resume of (unit, unit) continuation

type t = {
  mutable now : Time.t;
  queue : event Event_queue.t;
  parked : (int, (unit, unit) continuation) Hashtbl.t;
  mutable next_park : int;  (* numbers suspensions in the order made *)
  mutable disposing : bool;
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
    queue = Event_queue.create ~dummy_payload:(Run ignore);
    parked = Hashtbl.create 16;
    next_park = 0;
    disposing = false;
    events_processed = 0;
    processes_spawned = 0;
    stop_requested = false;
    run_cpu_seconds = 0.;
  }

let now k = k.now

let schedule ?(delay = Time.zero) k action =
  Event_queue.push k.queue (Time.add k.now delay) (Run action)

let schedule_at k time action = Event_queue.push k.queue time (Run action)

let stop k = k.stop_requested <- true

let park k cont register =
  let id = k.next_park in
  k.next_park <- id + 1;
  Hashtbl.add k.parked id cont;
  register (fun () ->
      match Hashtbl.find_opt k.parked id with
      | Some cont ->
          Hashtbl.remove k.parked id;
          Event_queue.push k.queue k.now (Resume cont)
      | None -> ())

let exec_fiber k body =
  match_with body ()
    {
      retc = (fun () -> ());
      exnc = (function Halted -> () | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | (Wait _ | Suspend _) when k.disposing ->
              (* a fiber that blocks again while unwinding *)
              Some (fun (cont : (a, _) continuation) -> discontinue cont Halted)
          | Wait d ->
              Some
                (fun (cont : (a, _) continuation) ->
                  Event_queue.push k.queue (Time.add k.now d) (Resume cont))
          | Suspend register ->
              Some (fun (cont : (a, _) continuation) -> park k cont register)
          | Get_kernel ->
              Some (fun (cont : (a, _) continuation) -> continue cont k)
          | _ -> None);
    }

let spawn k body =
  k.processes_spawned <- k.processes_spawned + 1;
  if Obs.enabled () then Obs.incr_counter "sim.processes_spawned";
  schedule k (fun () -> exec_fiber k body)

let dispatch = function Run action -> action () | Resume cont -> continue cont ()

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
    if not k.stop_requested then
      match Event_queue.peek_time k.queue with
      | None -> ()
      | Some time when within time ->
          let _, event = Option.get (Event_queue.pop k.queue) in
          k.now <- time;
          k.events_processed <- k.events_processed + 1;
          dispatch event;
          loop ()
      | Some _ ->
          (* the event stays queued; clamp the clock at the horizon *)
          Option.iter (fun limit -> k.now <- limit) until
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

(* Unwind one parked fiber.  Whatever it raises on the way out is
   dropped: the owner is done with the simulation, and an exception here
   would leave the remaining fibers parked. *)
let unwind cont = try discontinue cont Halted with _ -> ()

let dispose k =
  k.disposing <- true;
  let rec drain () =
    match Event_queue.pop k.queue with
    | Some (_, Resume cont) ->
        unwind cont;
        drain ()
    | Some (_, Run _) -> drain ()  (* nothing started, nothing to unwind *)
    | None when Hashtbl.length k.parked = 0 -> ()
    | None ->
        let ids =
          List.sort compare (List.of_seq (Hashtbl.to_seq_keys k.parked))
        in
        List.iter
          (fun id ->
            (* an earlier fiber's unwinding may have resumed this one:
               it is back in the queue, for the next round *)
            match Hashtbl.find_opt k.parked id with
            | Some cont ->
                Hashtbl.remove k.parked id;
                unwind cont
            | None -> ())
          ids;
        drain ()
  in
  drain ();
  k.disposing <- false

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
