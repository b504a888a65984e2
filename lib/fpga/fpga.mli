(** The dynamically reconfigurable device.

    At most one context is loaded at a time.  {!reconfigure} downloads the
    bitstream over the system bus and programs the fabric; {!require}
    asserts a resource is available, raising {!Inconsistent} otherwise —
    the runtime fault whose static absence SymbC certifies.

    Dependability: downloads are CRC-checked against the context's golden
    image ({!Context.golden_crc}) with a bounded re-download on mismatch
    ({!Download_failed} when it keeps failing); configuration-memory
    upsets ({!upset_loaded}) are detected and repaired by readback
    {!scrub}bing; resources can wedge ({!set_stuck}) and the device
    carries a health flag ({!is_healthy}) that the level-3 platform model
    downgrades when recovery gives up, switching the affected tasks to
    their software fallback. *)

exception Inconsistent of { resource : string; loaded : string option }

exception Download_failed of { fpga : string; context : string; attempts : int }
(** Raised by {!reconfigure} / {!scrub} when all three download
    attempts (the first and two re-downloads) ended in a CRC mismatch
    or a failed bus transfer. *)

type t

val create :
  ?capacity:int ->
  ?copies:int ->
  ?program_ns_per_byte:int ->
  ?burst_bytes:int ->
  contexts:Context.t list ->
  string ->
  t
(** Raises [Invalid_argument] if any context's area times [copies]
    exceeds [capacity].  [copies] (default 1) is the redundancy degree:
    [3] runs every context as TMR — each load downloads and programs
    three resource areas, and {!vote_and_repair} masks single-copy
    upsets by majority vote.  Only 1 (simplex) and 3 are accepted.
    [burst_bytes] (default 8, i.e. CPU-driven programmed I/O without a
    DMA engine) is the bus-burst granularity of bitstream downloads:
    each burst is a separately arbitrated bus transaction.  A corrupted
    download is re-attempted twice before {!Download_failed}. *)

val copies : t -> int
val loaded : t -> Context.t option
val find_context : t -> string -> Context.t

val reconfigure :
  ?verify_previous:bool ->
  t ->
  bus:Symbad_tlm.Bus.t ->
  master:string ->
  string ->
  unit
(** [reconfigure f ~bus ~master ctx] loads context [ctx] (by name) unless
    already loaded: a high-priority bitstream bus transfer followed by
    fabric programming time.  The download CRC is checked against the
    golden image; a mismatch (or a failed bus transfer) triggers a
    bounded re-download, then {!Download_failed}.  With
    [verify_previous] (default [false]) — the readback-on-context-switch
    half of the scrubbing feature — an upset in the outgoing context is
    detected before being overwritten and counted as a scrub reload; a
    corrupted context that is re-requested is repaired in place.  Must
    be called from a simulation process. *)

val require : t -> string -> unit
(** Assert that the named resource is currently available. *)

(** {1 Fault injection and recovery} *)

val inject_download_fault : t -> (attempt:int -> word:int -> int) option -> unit
(** Install (or remove) the download-corruption hook: for download
    [attempt] (0-based, counting re-downloads) the hook returns an xor
    mask for bitstream word [word] — [0] leaves the word clean.  Must be
    deterministic for reproducible campaigns. *)

val upset_loaded : ?copy:int -> t -> bool
(** Flip bits in the loaded configuration memory (an SEU in the fabric):
    the device keeps running but computes corrupted results until a
    {!scrub} (or, under TMR, {!vote_and_repair}) repairs it.  [copy]
    (default 0, clamped to the redundancy degree) selects which TMR
    copy is hit.  Returns [false] — no-op — when nothing is loaded. *)

val upset_context : ?copy:int -> t -> string -> bool
(** Upset the named context's resident configuration frames even while
    another context is active — inactive resource areas collect SEUs
    too.  Returns [false] for an unknown context. *)

val loaded_corrupted : t -> bool
(** True while the loaded context carries an unrepaired upset in any
    copy. *)

val context_corrupted : t -> Context.t -> bool
(** True while the given context carries an unrepaired upset. *)

val scrub :
  ?context:string -> t -> bus:Symbad_tlm.Bus.t -> master:string -> bool
(** Readback scrubbing pass: stream the configuration memory back over
    the bus (every copy), compare its CRC with the golden image, and
    reload the corrupt copies on mismatch.  [context] scrubs the named
    context's resource area instead of the active one — repairing an
    upset in an inactive context without disturbing the loaded one.
    Returns [true] when a corruption was detected and repaired.  Must
    be called from a simulation process. *)

val vote_and_repair : t -> [ `Clean | `Masked | `Corrupt ]
(** The TMR majority vote at result-readout time.  [`Masked]: exactly
    one copy disagreed — the voted result is correct, the disagreement
    is counted, and the offending copy alone is repaired over the
    internal configuration port, overlapping continued voted operation
    (counters and repair bytes move; no simulated time, no bus
    traffic).  [`Corrupt]: the vote is defeated (two or more corrupt
    copies, or any upset in simplex mode).  [`Clean] otherwise; always
    [`Clean]/[`Corrupt] when [copies = 1]. *)

val set_stuck : t -> string -> unit
(** Wedge the named resource: it keeps passing {!require} (the context
    does provide it) but stops {!responding}, which the platform
    watchdog detects. *)

val clear_stuck : t -> unit

val responding : t -> string -> bool
(** False while the named resource is wedged by {!set_stuck}. *)

val is_healthy : t -> bool
(** False once recovery has given up on the fabric ({!mark_unhealthy});
    level 3 then routes the affected tasks to software. *)

val mark_unhealthy : t -> unit

val note_watchdog : t -> unit
(** Count a watchdog expiry against this device (emitted by the level-3
    platform model when a resource stops responding). *)

(** {1 Statistics} *)

type stats = {
  reconfigurations : int;  (** contexts actually loaded *)
  noop_reconfigurations : int;  (** requests for the already-loaded context *)
  bitstream_bytes : int;  (** downloaded, re-downloads included *)
  reconfig_ns : int;
  resource_calls : int;
  crc_mismatches : int;  (** corrupted downloads detected *)
  retried_downloads : int;  (** bounded re-downloads performed *)
  failed_downloads : int;  (** downloads abandoned ({!Download_failed}) *)
  scrubs : int;  (** readback scrubbing passes *)
  scrub_reloads : int;  (** scrubs that found and repaired an upset *)
  watchdog_fires : int;  (** watchdog expiries ({!note_watchdog}) *)
  copies : int;  (** redundancy degree: 1 simplex, 3 TMR *)
  voter_disagreements : int;  (** TMR votes with a lone dissenter *)
  targeted_repairs : int;  (** single-copy repairs driven by the voter *)
  repair_bytes : int;  (** configuration bytes rewritten by those repairs *)
  area_loaded : int;  (** largest resource area consumed (all copies) *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
