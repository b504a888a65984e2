(** Memory inspection — the Laerte++ capability that exposed the
    "incorrect memory initialization" design errors at level 1.

    An inspected memory tracks which cells have been written since
    reset; reading a never-written cell records a violation (and returns
    a distinctive stale value) instead of failing silently. *)

type violation = {
  memory : string;
  address : int;
  access_index : int;  (** accesses performed before this one *)
}

type t

val create : size:int -> string -> t

val write : t -> addr:int -> int -> unit
val read : t -> addr:int -> int
(** Returns the stored value, or the stale value [0x2A] (recording a
    violation) when the cell was never written. *)

val violations : t -> violation list
(** In occurrence order. *)

val is_clean : t -> bool

val report : Format.formatter -> t -> unit

val accumulator_model :
  clears_buffer:bool -> cells:int -> t * (int list -> int list)
(** A frame-accumulation model over an inspected buffer.  With
    [clears_buffer:false] it reproduces the level-1 bug: the first frame
    reads uninitialised cells and later frames accumulate stale data. *)
