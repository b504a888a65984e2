(** Annotated embedded-CPU model.

    No instruction-set simulation: the SW partition runs natively and
    {!execute} accounts its annotated cycle cost against the simulated
    clock, exactly as the Vista level-2 flow does. *)

type t

val create : ?period_ns:int -> unit -> t
(** Default clock: 20 ns (50 MHz ARM7TDMI class). *)

val execute : t -> cycles:int -> unit
(** Block the calling process for [cycles] CPU cycles and account them. *)

type stats = { executed_cycles : int; busy_ns : int; firings : int }

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
