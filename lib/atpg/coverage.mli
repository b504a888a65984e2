(** Coverage instrumentation for behavioural models.

    Models declare a universe of points and mark hits while executing;
    the engines chase the unhit points.  Metrics are the ones Laerte++
    reports: statement, branch and condition coverage plus the stricter
    bit coverage (every output bit observed at both polarities). *)

type point =
  | Stmt of string
  | Branch of string * bool  (** both arms of each decision *)
  | Cond of string * bool  (** both values of each atomic condition *)
  | Bit of string * int * bool  (** output name, bit index, polarity *)

type t

val create : unit -> t

val stmt : t -> string -> unit
val branch : t -> string -> bool -> unit
val cond : t -> string -> bool -> unit

val out_bits : t -> string -> width:int -> int -> unit
(** Record every bit of an output word at its observed polarity. *)

val is_hit : t -> point -> bool
val hit_count : t -> point -> int
val merge : into:t -> t -> unit

type report = {
  statement : float;
  branch_ : float;
  condition : float;
  bit : float;
  total : float;
  hit_points : int;  (** points hit, across all four kinds *)
  total_points : int;  (** universe size *)
  missed : point list;  (** the coverage frontier *)
}

val report : universe:point list -> t -> report
val pp_report : Format.formatter -> report -> unit
