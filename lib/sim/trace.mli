(** Simulation trace recording and comparison.

    The flow verifies each refinement level by comparing its trace against
    the previous level's (level 1 against the C reference model).  Because
    refined models produce the same data at different times, comparison is
    per-stream and data-only: for every (source, label) pair the sequences
    of recorded values must match exactly. *)

type t

type entry = {
  time : Time.t;
  source : string;  (** emitting module *)
  label : string;  (** stream name within the module *)
  value : string;  (** printed datum *)
}

val create : unit -> t
val record : t -> time:Time.t -> source:string -> label:string -> string -> unit
val entries : t -> entry list
val length : t -> int

val stream_of : t -> source:string -> label:string -> string list
(** Values recorded for one stream, in emission order. *)

val sources : t -> (string * string) list
(** All (source, label) streams present, sorted. *)

type mismatch = {
  source : string;
  label : string;
  index : int;
  expected : string option;
  actual : string option;
}

val compare_data : reference:t -> actual:t -> mismatch list
(** Stream-by-stream data comparison; empty list means the models agree. *)

val equal_data : reference:t -> actual:t -> bool

val pp : Format.formatter -> t -> unit
