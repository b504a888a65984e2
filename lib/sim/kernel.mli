(** Discrete-event simulation kernel.

    A kernel owns a clock and a queue of pending events.  Simulation
    processes (see {!Process}) are OCaml functions run as fibers on top of
    it: when a process blocks, its continuation is parked until the event
    that unblocks it fires.  Same-time events run in schedule order. *)

type t

type stats = {
  events : int;  (** events dispatched by {!run} *)
  processes : int;  (** processes spawned over the kernel's lifetime *)
  final_time : Time.t;  (** simulated clock after the last {!run} *)
  cpu_seconds : float;  (** host CPU time consumed by {!run} calls *)
}

exception Halted
(** Terminates the raising process silently (see {!Process.halt}). *)

type _ Effect.t +=
  | Wait : Time.t -> unit Effect.t
        (** Advance this process past the given delay. *)
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
        (** [Suspend register] parks the process; [register resume] is
            called immediately with the function that will re-schedule it.
            Calling [resume] more than once is harmless. *)
  | Get_kernel : t Effect.t  (** The kernel running the current process. *)

val create : unit -> t

val now : t -> Time.t
(** Current simulated time. *)

val schedule : ?delay:Time.t -> t -> (unit -> unit) -> unit
(** [schedule ?delay k action] runs [action] after [delay] (default: now). *)

val schedule_at : t -> Time.t -> (unit -> unit) -> unit

val spawn : t -> (unit -> unit) -> unit
(** [spawn k body] registers [body] as a process starting at the
    current time. *)

val run : ?until:Time.t -> t -> unit
(** Dispatch events until the queue drains, {!stop} is called, or the
    clock would pass [until]. *)

val stop : t -> unit
(** Request that {!run} return after the current event. *)

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
