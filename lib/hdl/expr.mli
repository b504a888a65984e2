(** Word-level combinational expressions over inputs and registers.

    Strict widths: binary arithmetic/logic requires equal operand widths
    and wraps; comparisons yield width-1 results. *)

type unop = Not | Neg
type binop = Add | Sub | Mul | And | Or | Xor | Eq | Ult | Ule

type t =
  | Const of Bitvec.t
  | Input of string
  | Reg of string
  | Unop of unop * t
  | Binop of binop * t * t
  | Mux of t * t * t  (** [Mux (sel, then_, else_)], [sel] of width 1 *)
  | Slice of t * int * int  (** [Slice (e, hi, lo)] *)
  | Concat of t * t  (** [Concat (hi, lo)] *)

(** Constructors. *)

val const : width:int -> int -> t
val input : string -> t
val reg : string -> t
val not_ : t -> t
val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val xor : t -> t -> t
val eq : t -> t -> t
val ult : t -> t -> t
(** Unsigned less-than (width-1 result). *)

val ule : t -> t -> t
val mux : t -> t -> t -> t
val slice : t -> hi:int -> lo:int -> t
val concat : t -> t -> t

val binop_to_string : binop -> string

val infer_width :
  input_width:(string -> int option) ->
  reg_width:(string -> int option) ->
  t ->
  (int, string) result
(** Total static width inference: [Ok width], or [Error message] on
    undeclared names or width inconsistencies.  The message names the
    offending operator/name and the widths involved. *)

val width :
  input_width:(string -> int option) ->
  reg_width:(string -> int option) ->
  t ->
  int
(** Static width; raises [Invalid_argument] on undeclared names or width
    inconsistencies.  [width e = infer_width e] with the error raised. *)

val eval : input:(string -> Bitvec.t) -> reg:(string -> Bitvec.t) -> t -> Bitvec.t

val map : (t -> t) -> t -> t
(** [map f e] rebuilds [e]'s top node with [f] applied to each immediate
    subterm; leaves ([Const], [Input], [Reg]) come back unchanged.  [f]
    is applied right to left (a [Mux]'s else arm, then its then arm, then
    its selector; a [Binop]'s or [Concat]'s right operand before its
    left), so a rewrite that counts or raises sees a fixed order. *)

val fold_names :
  ('a -> [ `Input of string | `Reg of string ] -> 'a) -> 'a -> t -> 'a
