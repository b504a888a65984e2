(** The level-1 system specification: a dataflow graph of communicating
    tasks.

    Semantics: homogeneous synchronous dataflow.  A firing consumes one
    token from each input channel and produces one on each output
    channel.  Sources (no inputs) produce from a generator until
    exhausted, bounding the execution.  Every channel has exactly one
    producer and either exactly one consumer or is a sink (read by the
    environment). *)

type firing = {
  outputs : Token.t list;  (** one per declared output channel *)
  work : int;  (** work units performed, for profiling *)
}

type task = {
  name : string;
  inputs : string list;
  outputs : string list;
  fire : firing_index:int -> Token.t list -> firing option;
      (** [None] from a source ends the run *)
}

type t = {
  name : string;
  tasks : task list;
  sinks : string list;  (** channels read by the environment *)
}

val task :
  name:string ->
  inputs:string list ->
  outputs:string list ->
  (firing_index:int -> Token.t list -> firing option) ->
  task

val transform :
  name:string ->
  inputs:string list ->
  outputs:string list ->
  work:(Token.t list -> int) ->
  (Token.t list -> Token.t list) ->
  task
(** A pure task: output tokens and work model both from the inputs. *)

val source :
  name:string ->
  outputs:string list ->
  work:int ->
  (int -> Token.t list option) ->
  task
(** [source ~work script] fires [script i] until it returns [None]. *)

val make : name:string -> tasks:task list -> sinks:string list -> t
(** Validates the graph; raises [Invalid_argument] on duplicate names,
    multiply-driven or dangling channels, or self-loops. *)

val channels : t -> string list
val producer_of : t -> string -> task option
val consumer_of : t -> string -> task option

val topological_order : t -> task list
(** Kahn's algorithm; raises on cyclic graphs (cyclic specifications go
    through the LPV deadlock analysis first). *)
