(** The benchmark's own in-memory span recorder.

    Spans are opened around calls into the program's public entry
    points, nest by dynamic scope (single domain), carry the id of the
    operation they belong to, and stay in memory until the run writes
    them out.  Times are monotonic nanoseconds. *)

type span = {
  id : int;
  name : string;
  parent : int option;  (** the enclosing span, [None] at top level *)
  op : int;  (** the operation this span belongs to *)
  start_ns : int;
  end_ns : int;
}

type t

val now_ns : unit -> int
(** The monotonic clock every benchmark time is read from. *)

val create : unit -> t

val span : t -> op:int -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span named [name], a child of whichever span
    is open (recorded even when the thunk raises). *)

val spans : t -> span list
(** Every closed span, in order of opening. *)

val self_times : span list -> (string * int) list
(** Per span name, the summed self time in ns: each span's duration
    minus the part of it its direct children cover.  Names appear in
    first-seen order. *)

val to_json : span list -> Symbad_obs.Json.t
(** The spans as a JSON list, for the [--json] artefact. *)
