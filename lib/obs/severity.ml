(* Event severities, ordered from chattiest to gravest. *)

type t = Debug | Info | Warn | Error

let to_int = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let compare a b = Int.compare (to_int a) (to_int b)
