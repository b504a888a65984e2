(** A small behavioural-synthesis front end: elaborate SSA dataflow
    descriptions into combinational or registered netlists. *)

type dataflow = {
  df_name : string;
  df_inputs : (string * int) list;
  df_defs : (string * Expr.t) list;
      (** SSA definitions; reference earlier defs via [Expr.Reg] *)
  df_outputs : (string * string) list;  (** output name -> def or input *)
}

val combinational : dataflow -> Netlist.t
(** Inline the defs into the outputs; raises [Invalid_argument] on
    unknown references or width errors. *)

val registered : dataflow -> Netlist.t
(** The same dataflow with input and output registers (two-cycle
    latency), for bus-clock integration. *)

val equivalent_to_oracle :
  Netlist.t -> ((string * int) list -> (string * int) list) -> bool option
(** Exhaustive equivalence of a combinational netlist against an OCaml
    oracle over the full input space; [None] when the space exceeds
    [2^16]. *)
