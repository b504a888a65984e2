(** Discrete-event simulation kernel.

    A kernel owns a clock and a queue of pending events.  Simulation
    processes (see {!Process}) are OCaml functions run as fibers on top of
    it: when a process blocks, its continuation is parked until the event
    that unblocks it fires.  Same-time events run in schedule order.

    A kernel's owner disposes it ({!dispose}) once done with it: the
    processes still blocked then are unwound with {!Halted}.  A fiber
    that is never resumed nor unwound keeps its stack allocated. *)

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
    clock would pass [until].  Events past [until] stay queued. *)

val stop : t -> unit
(** Request that {!run} return after the current event. *)

val dispose : t -> unit
(** Unwind every process still blocked: discontinue each with {!Halted}
    (so its [Fun.protect ~finally] clauses and handlers run), the timed
    waits in queue order, then the suspensions in the order they were
    made, repeated until none is left — a [finally] may wake another
    process.  A process that waits or suspends while unwinding is
    discontinued at once, and what it raises on the way out is dropped.
    Pending {!schedule}d actions and processes that never started are
    discarded.  Call it from outside any process, after {!run} has
    returned; the kernel is then empty, and disposing it again does
    nothing. *)

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
