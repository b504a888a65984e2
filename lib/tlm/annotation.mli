(** Timing annotation: profile weights → cycles per mapping target.

    Level-1 execution profiles each task in abstract work units; the
    annotation model converts units into cycles depending on where the
    task is mapped (automatically for SW, as Vista does; with a designer
    cost model for HW and FPGA logic). *)

type target =
  | Sw  (** embedded CPU (ARM7TDMI class) *)
  | Hw  (** hardwired logic *)
  | Fpga  (** soft hardware inside the embedded FPGA *)

type t

val default : t
(** 12 CPU cycles, 1 hardwired cycle, 2 FPGA cycles per work unit. *)

val cycles : t -> target:target -> weight:int -> int
(** Cycle cost of one firing with the given profile weight. *)

(** Execution profiles gathered at level 1. *)
module Profile : sig
  type t

  val create : unit -> t

  val record : t -> task:string -> units:int -> unit
  (** Account one firing of [task] that performed [units] work units. *)

  val units_per_firing : t -> string -> int
  (** Average units per firing (0 for unknown tasks). *)

  val ranking : t -> (string * int) list
  (** Tasks ranked by total work — the input to the HW/SW partition. *)

  val pp : Format.formatter -> t -> unit
end
