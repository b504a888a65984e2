(** Shared-bus model (AMBA AHB style) at transaction level.

    Exactly one transaction owns the bus at a time; contending masters are
    granted in fixed-priority order (lower number wins), FIFO within a
    priority.  Transfer cost is
    [arbitration + setup + ceil(bytes/width)] bus cycles.

    Fault injection: a hook installed with {!inject_faults} decides the
    slave response of every completed transfer ({!response}, the AHB
    OKAY/ERROR/RETRY phase).  The master-side recovery is a bounded retry
    with exponential backoff ([period_ns * 2{^attempt}] between
    attempts); after three retries the transfer raises
    {!Transfer_failed}. *)

type t

(** Slave response to a completed transfer — the AHB response phase. *)
type response =
  | Okay  (** transfer accepted *)
  | Error  (** slave error; the master may re-attempt *)
  | Retry  (** slave asks the master to retry the transfer *)

exception
  Transfer_failed of { master : string; target : string; attempts : int }
(** Raised by {!transfer} when every attempt (the first and three
    retries) drew a non-[Okay] response. *)

val create : ?width_bytes:int -> ?period_ns:int -> ?ecc:bool -> unit -> t
(** [create ()] with defaults: 32-bit bus ([width_bytes = 4]),
    100 MHz ([period_ns = 10]).  Every transaction pays 1 arbitration
    and 1 setup cycle, and a faulted transfer is re-attempted up to 3
    times.

    With [ecc] (default [false]) every transfer is SEC-DED protected
    ({!Ecc}): payloads travel as 39-bit codewords per 32 data bits —
    {!transfer_cycles} charges the widened transfer on every
    transaction, faulted or not — single-bit corruptions (see
    {!inject_corruption}) are corrected in place with no retry
    round-trip, and double-bit corruptions are detected and fall back
    to the bounded retry. *)

val ecc : t -> bool
(** Whether this bus was created with SEC-DED protection. *)

val inject_faults : t -> (Transaction.t -> attempt:int -> response) option -> unit
(** Install (or with [None] remove) the slave-response hook.  The hook
    sees the transaction and the 0-based attempt number, and must be
    deterministic for reproducible campaigns.  Without a hook every
    response is [Okay] — the exact pre-fault behaviour. *)

val inject_corruption : t -> (Transaction.t -> attempt:int -> int) option -> unit
(** Install (or remove) the in-flight corruption hook: the hook returns
    how many bits of one coded word of the transfer were flipped ([0] =
    clean).  On an ECC bus a single flip is corrected in place (counted
    in [ecc_corrected], the transfer completes normally) and a double
    flip is detected ([ecc_double_errors]) and retried.  On a plain bus
    any corruption surfaces as an ERROR response.  Must be
    deterministic. *)

val transfer_cycles : t -> int -> int
(** [transfer_cycles b bytes] is the cost of one transaction in bus
    cycles, without contention. *)

val transfer_time : t -> int -> Symbad_sim.Time.t

val transfer : ?priority:int -> t -> Transaction.t -> unit
(** Perform a transaction from inside a simulation process: waits for the
    bus grant, then for the transfer duration.  [priority] defaults to 8
    (lowest sensible); bitstream downloads typically use a high priority.
    Raises {!Transfer_failed} when an injected fault outlasts the retry
    budget. *)

type master_stats = {
  mutable transactions : int;
  mutable bytes : int;
  mutable busy_ns : int;
  mutable wait_ns : int;  (** time spent waiting for grants *)
}

type report = {
  transactions : int;  (** successful transfers *)
  busy_ns : int;  (** bus occupancy, faulted attempts included *)
  data_bytes : int;
  bitstream_bytes : int;  (** traffic due to FPGA reconfiguration *)
  error_responses : int;  (** injected ERROR responses observed *)
  retry_responses : int;  (** injected RETRY responses observed *)
  failed_transfers : int;  (** transfers that exhausted their retries *)
  ecc_corrected : int;  (** single-bit corruptions corrected in place *)
  ecc_double_errors : int;  (** double-bit corruptions detected *)
  utilisation : float;  (** busy time over the observed activity window *)
  per_master : (string * master_stats) list;
}

val report : t -> report
val pp_report : Format.formatter -> report -> unit
