(** Bounded blocking FIFO channels (point-to-point communication).

    A capacity of 0 means unbounded — the abstraction used by level-1
    untimed models.  Levels 2-3 use finite capacities; the recorded
    occupancy statistics are the empirical counterpart of the LPV FIFO
    dimensioning analysis.

    For the platform fault-injection campaigns a channel can be made
    {e lossy} ({!set_loss}): selected write attempts silently discard
    their token and are counted by {!drops}, modelling a link that
    corrupts frames in flight. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity = 0] (default) is unbounded. *)

val put : 'a t -> 'a -> unit
(** Blocking write; parks the calling process while the channel is full.
    On a lossy channel (see {!set_loss}) a selected attempt drops the
    token instead of enqueueing it and returns immediately. *)

val get : 'a t -> 'a
(** Blocking read; parks the calling process while the channel is empty. *)

val set_loss : 'a t -> (int -> bool) option -> unit
(** [set_loss f (Some p)] makes the channel lossy: a write attempt with
    index [i] (0-based, counting every [put] call) is discarded when
    [p i] is true.  [set_loss f None] restores reliable delivery.
    Dropped tokens are counted by {!drops}. *)

val drops : 'a t -> int
(** Tokens discarded so far by injected loss. *)

type occupancy = {
  puts : int;  (** total successful writes *)
  gets : int;  (** total reads *)
  max_occupancy : int;  (** high-water mark of the queue length *)
  drops : int;  (** discarded tokens, see {!drops} *)
}

val occupancy : 'a t -> occupancy
