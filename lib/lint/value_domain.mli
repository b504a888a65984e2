(** The abstract value lattice of the netlist abstract interpreter: a
    three-valued-constant × interval product with an explicit X element
    for uninitialized state.

    An abstract value describes the set of [width]-bit words a signal
    may carry across all reachable cycles.  Precision degrades in
    steps: a small exact value set (constants are singletons), then a
    contiguous interval, then the full range; the orthogonal [poison]
    flag records that the signal may additionally be X — uninitialized
    silicon whose simulation value (the reset init) under-represents
    real hardware.  [poison] forces the full range, so membership
    ({!mem}) stays a one-sided over-approximation.

    All operations are deterministic and total; soundness contract:
    if concrete inputs lie in the operand abstractions, the concrete
    {!Symbad_hdl.Bitvec} result lies in the result abstraction. *)

type t

val width : t -> int

val const : Symbad_hdl.Bitvec.t -> t
(** The singleton. *)

val top : width:int -> t

val x : width:int -> t
(** Uninitialized: full range with the poison flag set. *)

val is_poison : t -> bool

val is_const : t -> int option
(** [Some v] iff the value is exactly the non-poison singleton [v]. *)

val mem : int -> t -> bool
(** Concretisation membership — the soundness predicate. *)

val equal : t -> t -> bool

val join : t -> t -> t

val widen : prev:t -> next:t -> t
(** Back-edge widening: any still-moving bound jumps to its extreme, so
    iteration converges in a bounded number of rounds. *)

(** {1 Abstract transfer functions}

    Mirrors of the {!Symbad_hdl.Expr} operators over [Bitvec]
    wraparound semantics.  Binary transfers require equal operand
    widths (as the checked IR guarantees). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val neg : t -> t
val eq : t -> t -> t
val ult : t -> t -> t
val ule : t -> t -> t
val mux : t -> t -> t -> t
val slice : hi:int -> lo:int -> t -> t
val concat : t -> t -> t

(** {1 Arithmetic wrap feasibility — the [net.range] queries} *)

val add_may_wrap : t -> t -> bool
(** May [a + b] exceed the word size (so the hardware result wraps)?
    False when either operand is bottom or poison (X propagation is
    [net.x-prop]'s finding, not a range finding). *)

val sub_may_wrap : t -> t -> bool
(** May [a - b] borrow (some a < some b)? *)

val mul_may_wrap : t -> t -> bool

val to_string : t -> string
(** Stable rendering for diagnostics: ["X"], ["{0,2,4}"], ["[0..255]"]. *)
