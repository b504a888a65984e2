(** Control-flow graphs of mini-C programs.  Edges carry the action
    performed; branches and loop tests are nondeterministic. *)

type action = Nop | Call of string | Reconfig of string

type edge = { src : int; dst : int; action : action }

type t = { entry : int; exit_ : int; nnodes : int; edges : edge list }

val action_to_string : action -> string
val build : Ast.program -> t
val successors : t -> int -> edge list
