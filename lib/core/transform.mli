(** The two structural transformations the exploration environment
    automates (paper §4.1): the untimed-to-timed-TL step and the
    incremental HW/SW moves, with automatic re-annotation on
    re-evaluation. *)

type design = {
  graph : Task_graph.t;
  mapping : Mapping.t;
  profile : Symbad_tlm.Annotation.Profile.t;
}

val to_timed_tl :
  profile:Symbad_tlm.Annotation.Profile.t ->
  hw:string list ->
  Task_graph.t ->
  design
(** Transformation 1: group the SW candidates onto the CPU, instantiate
    the bus, connect; [hw] is the first HW candidate set. *)

val move_to_hw : design -> string -> design
(** Transformation 2a. *)

val move_to_sw : design -> string -> design
(** Transformation 2b. *)

val evaluate : design -> Level2.result
(** Re-simulate at level 2 on the default platform; annotation is
    re-applied automatically. *)

val speedup_of_moving_to_hw : design -> string -> float
