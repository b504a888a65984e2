(** VCD (Value Change Dump) emission for netlist simulations, consumable
    by standard waveform viewers. *)

val of_simulation : Netlist.t -> (string * Bitvec.t) list list -> string
(** Simulate a stimulus and return the complete VCD text, tracking every
    input and register of the netlist on a 10 ns timescale (one 100 MHz
    cycle); each cycle dumps only the values that changed. *)
