(** High-level fault model for property-coverage checking.

    Faults are netlist mutations in the bit-coverage spirit: a register
    bit stuck at 0/1, or a mux (branch) selector stuck at a constant. *)

type t =
  | Reg_stuck of { reg : string; bit : int; value : bool }
  | Cond_stuck of { index : int; value : bool }
      (** [index]-th mux selector, in traversal order over register
          next-functions then outputs *)

val to_string : t -> string

val netlist_muxes : Symbad_hdl.Netlist.t -> int

val enumerate : ?max_reg_bits:int -> Symbad_hdl.Netlist.t -> t list
(** All faults; stuck-at faults are capped at [max_reg_bits] (default 8)
    LSBs per register. *)

val apply : Symbad_hdl.Netlist.t -> t -> Symbad_hdl.Netlist.t
(** The mutated netlist (reset value and next-state function are both
    forced for stuck register bits). *)
