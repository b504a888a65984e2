(** Priority queue of timed events.

    Events with equal timestamps are delivered in insertion order, which
    makes same-time ("delta cycle") scheduling deterministic. *)

type 'a t

val create : dummy_payload:'a -> 'a t
(** [create ~dummy_payload] is an empty queue.  [dummy_payload] is only
    used to initialise the backing array and is never delivered. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> Time.t -> 'a -> unit
(** [push q time payload] schedules [payload] at [time]. *)

val peek_time : 'a t -> Time.t option
(** The time of the earliest pending event, left in the queue. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest pending event. *)
