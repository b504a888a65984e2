(** Blocking primitives for simulation processes.

    All functions here must be called from inside a process body spawned
    with {!Kernel.spawn} (or {!spawn}); calling them elsewhere raises
    [Effect.Unhandled]. *)

val wait : Time.t -> unit
(** Block the calling process for the given simulated duration. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the calling process.  [register] receives the
    resume function; whoever calls it wakes the process at the then-current
    simulated time.  Building block for channels ({!Fifo}). *)

val now : unit -> Time.t
(** Current simulated time. *)

val kernel : unit -> Kernel.t
(** The kernel running the calling process. *)

val halt : unit -> 'a
(** Terminate the calling process immediately. *)

val spawn : (unit -> unit) -> unit
(** Spawn a sibling process on the same kernel. *)
