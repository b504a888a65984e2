(** The platform fault model: what the campaign engine injects.

    Eight non-nominal behaviours of the reconfigurable platform, each
    paired with the mechanism expected to detect and recover from — or
    mask — it:

    - {!Bitstream_seu} — bit-flips during a bitstream download; detected
      by the download CRC, recovered by bounded re-download.
    - {!Config_upset} — an SEU in the loaded configuration memory;
      detected by readback scrubbing (or masked outright by the TMR
      vote in the masked operating mode), recovered by context reload.
    - {!Bus_error} — ERROR/RETRY responses on AMBA transfers; recovered
      by the master's bounded retry with backoff.
    - {!Fifo_loss} — token drops on a lossy channel; recovered by the
      sender's bounded retransmit.
    - {!Stuck_resource} — a wedged FPGA resource; detected by the
      watchdog, recovered by degrading the task to software.
    - {!Ecc_single} — a single-bit corruption of one coded bus word;
      masked in place by SEC-DED ECC (no retry round-trip), an
      ERROR-class retry on a plain bus.
    - {!Ecc_double} — a double-bit corruption; detected by ECC (never
      miscorrected), recovered by the bounded retry.
    - {!Tmr_upset} — an SEU aimed at one specific TMR copy; masked by
      the majority vote, repaired by targeted single-copy reload. *)

type kind =
  | Bitstream_seu
  | Config_upset
  | Bus_error
  | Fifo_loss
  | Stuck_resource
  | Ecc_single
  | Ecc_double
  | Tmr_upset

val all_kinds : kind list
(** Every kind, in report order. *)

val kind_to_string : kind -> string
(** Stable lowercase name, e.g. ["bitstream_seu"]. *)

val of_string : string -> (kind, string) result
(** The kind that {!kind_to_string} names; an unknown name comes back
    as [Error] with a message listing every valid kind — the CLI
    parser's error text. *)

(** One concrete planned fault, with its injection parameters. *)
type injection =
  | Seu of { word : int; attempts : int }
      (** flip bitstream word [word] on download attempts [0..attempts-1] *)
  | Upset of { at_permille : int; copy : int }
      (** upset TMR copy [copy] of the loaded context at this fraction
          of the baseline latency; [copy = 0] is {!Config_upset},
          anything else {!Tmr_upset} (clamped on a simplex fabric) *)
  | Bus of { txn_index : int; error : bool; count : int }
      (** answer data transfer number [txn_index] with ERROR ([error]) or
          RETRY for its first [count] attempts *)
  | Loss of { channel : string; drop_index : int }
      (** drop write attempt [drop_index] on [channel] *)
  | Stuck of { resource : string }  (** wedge the resource from reset *)
  | Flip of { txn_index : int; bits : int; count : int }
      (** flip [bits] bits (1 = {!Ecc_single}, 2 = {!Ecc_double}) in one
          coded word of data write [txn_index], for its first [count]
          attempts *)

val kind_of_injection : injection -> kind

val injection_to_string : injection -> string
(** One deterministic human-readable line for reports. *)

val plan_injection : Symbad_image.Rng.t -> kind -> injection
(** Draw one injection of the given kind from the trial's generator.
    Parameters stay inside the envelope the recovery mechanisms are
    dimensioned for (retry bounds, scrub period, ECC distance): a
    correctly wired platform must survive every planned fault. *)
