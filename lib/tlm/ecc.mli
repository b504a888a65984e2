(** SEC-DED error-correcting code for 32-bit bus words.

    The Hamming(38,32) code — 6 check bits at the power-of-two
    positions of a 38-position block — extended with one overall parity
    bit to distance 4, the standard SEC-DED construction: every
    single-bit error is corrected, every double-bit error is detected
    and never miscorrected.  Codewords are {!code_bits} = 39 bits for
    {!data_bits} = 32 data bits; the 39/32 ratio is the transfer
    widening an ECC-protected bus charges. *)

val data_bits : int
(** 32. *)

val code_bits : int
(** 39: 32 data + 6 Hamming check bits + 1 overall parity bit. *)

val encode : int -> int
(** [encode word] is the 39-bit codeword of the low 32 bits of
    [word]. *)

type decoded =
  | Ok of int  (** clean codeword; the data word *)
  | Corrected of { word : int; bit : int }
      (** single-bit error at codeword position [bit], corrected in
          place; [word] is the repaired data *)
  | Double_error  (** two-bit error: detected, not correctable *)

val decode : int -> decoded
(** Check-and-correct a received codeword.  Exact for at most two
    flipped bits (the code's design point). *)
