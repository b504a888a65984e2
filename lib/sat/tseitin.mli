(** Tseitin gate encodings over a {!Solver} clause database.

    Gates return literals; constants are folded so that circuits built
    over known inputs cost nothing.

    Gates are hash-consed per [ctx]: after constant folding, a gate over
    operands already seen returns the literal defined the first time
    (or its negation) and adds no variable or clause.  AND is keyed on
    its unordered operand pair, XOR on its unordered pair of variables
    with the output polarity taken from the operand signs, MUX on
    [(sel, a, b)] after swapping the arms to make [sel] positive; OR,
    IFF, the full adder and the list gates share through them.

    {b Invariant.} Sharing is sound only because every gate definition
    is an unguarded equivalence added to the solver permanently.  Gate
    clauses must never sit behind an activation literal: once such a
    guard were retired, a cached literal would be left undefined and
    every later request for that gate would silently get an
    unconstrained variable.  Guard only query clauses over gate outputs
    (as {!Symbad_mc.Session} guards [[-act; -p]]). *)

type ctx

val create : Solver.t -> ctx
val solver : ctx -> Solver.t

val const_true : ctx -> int
val const_false : ctx -> int
val of_bool : ctx -> bool -> int

val fresh : ctx -> int
(** A fresh unconstrained variable (as a positive literal). *)

val and_gate : ctx -> int -> int -> int
val or_gate : ctx -> int -> int -> int
val xor_gate : ctx -> int -> int -> int
val iff_gate : ctx -> int -> int -> int

val mux_gate : ctx -> sel:int -> int -> int -> int
(** [mux_gate ~sel a b] is [if sel then a else b]. *)

val and_list : ctx -> int list -> int

val full_adder : ctx -> int -> int -> int -> int * int
(** [(sum, carry)] of a one-bit full adder. *)

val assert_lit : ctx -> int -> unit
(** Constrain a literal to hold. *)
