(** FPGA contexts (configurations): fixed resource sets loaded as a unit. *)

type t

val make : string -> Resource.t list -> t
(** Raises [Invalid_argument] on duplicate resource names. *)

val name : t -> string
val area : t -> int

val provides : t -> string -> bool
(** [provides c r] is true iff resource [r] is available once [c] is
    loaded. *)

val bitstream_bytes : t -> int
(** Size of the configuration bitstream: a 512-byte header plus 8 bytes
    per area unit. *)

val bitstream_words : t -> int
(** {!bitstream_bytes} in 32-bit words (rounded up). *)

val bitstream_word : t -> int -> int
(** [bitstream_word c i] is word [i] of the context's deterministic
    pseudo-bitstream — a stable hash of the context name and the index,
    so every context has a golden image without storing one. *)

val golden_crc : t -> int
(** CRC-32 of the clean bitstream ({!Crc.words} over
    {!bitstream_word}), computed once by {!make}; what
    {!Fpga.reconfigure} compares a download against. *)
