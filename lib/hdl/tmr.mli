(** Triple modular redundancy as a netlist transformation.

    {!triplicate} keeps three lock-stepped copies of every register and
    votes every output bitwise with [maj(a,b,c) = ab | ac | bc]; a
    single upset copy is outvoted — {e masked} — and the per-copy
    disagreement flags tell the reconfiguration controller exactly
    which resource area to repair.  {!voter} is the majority element as
    a standalone combinational netlist; {!voter_properties} is its
    masking contract, discharged by the model checker (see
    [Symbad_resil.Masking]) and usable directly as lint property
    input. *)

val copy_reg : int -> string -> string
(** Register name of copy [i] (0..2) in a triplicated netlist:
    [name ^ "__tmr" ^ i]. *)

val triplicate : Netlist.t -> Netlist.t
(** [triplicate nl] is [nl] with every register triplicated
    ({!copy_reg} naming), every output replaced by the bitwise majority
    of the three copies, and four extra width-1 outputs:
    [tmr_disagree0/1/2] (copy [i] disagrees with the vote on some
    output) and [tmr_disagree] (their disjunction).  Inputs are shared
    by the copies.  Raises [Invalid_argument] on a netlist without
    outputs. *)

val triplication_properties : Netlist.t -> (string * Expr.t) list
(** The lock-step invariant of [triplicate nl], phrased over the
    {e triplicated} netlist's signals: the three register banks stay
    equal, every disagreement flag stays low and the voted outputs
    equal copy 0's — one conjunction, 1-inductive. *)

val voter : ?width:int -> unit -> Netlist.t
(** The standalone majority voter over three [width]-bit (default 8)
    inputs [a]/[b]/[c]: outputs [voted], per-copy [disagree_a/b/c] and
    [disagree_any]. *)

val voter_properties : unit -> (string * Expr.t) list
(** The voter's masking contract as named width-1 formulas over the
    voter's inputs: a single corrupted copy never changes the voted
    output; full agreement raises no flag; a lone dissenter raises
    exactly its own flag (the targeted-repair signal). *)
