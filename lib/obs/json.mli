(** Minimal JSON tree with an emitter and a parser.

    The emitter produces strict JSON (non-finite floats become [null]);
    the parser accepts what the emitter produces plus ordinary JSON, and
    exists so tests can validate exported artefacts by parsing them
    back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Strict single-line JSON (non-finite floats emit as [null]). *)

exception Parse_error of string

val parse_exn : string -> t
(** @raise Parse_error on malformed input. *)

val parse : string -> (t, string) result

val member : string -> t -> t option
(** Field of an object; [None] on missing field or non-object. *)

val to_list : t -> t list option
(** The elements of a [List]; [None] for any other node. *)

val to_number : t -> float option
(** The value of an [Int] or [Float]; [None] otherwise. *)

val to_str : t -> string option
(** The value of a [Str]; [None] otherwise. *)
