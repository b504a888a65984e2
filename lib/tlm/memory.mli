(** Bus-addressable memory with access latency (models the nonvolatile
    face database and bitstream storage). *)

type t

val create : ?access_cycles:int -> size:int -> string -> t

val poke : t -> addr:int -> Bytes.t -> unit
(** Zero-time store, for preloading contents before simulation. *)

val peek : t -> addr:int -> len:int -> Bytes.t
(** Zero-time load, for inspecting contents after simulation. *)

val read : t -> bus:Bus.t -> master:string -> addr:int -> len:int -> Bytes.t
(** Bus-mediated load; blocks the calling process for the transfer plus
    the memory's access latency. *)

val write : t -> bus:Bus.t -> master:string -> addr:int -> Bytes.t -> unit
(** Bus-mediated store. *)

val accesses : t -> int * int
(** [(reads, writes)] performed through the bus. *)
