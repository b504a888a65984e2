(** Architecture mapping: which resource executes each task. *)

type target = Sw | Hw | Fpga of string  (** FPGA context name *)

type t = (string * target) list

val target_of : t -> string -> target
(** Raises on unmapped tasks. *)

val annotation_target : target -> Symbad_tlm.Annotation.target

val hw_tasks : t -> string list
val fpga_tasks : t -> (string * string) list
(** [(task, context)] pairs. *)

val contexts : t -> string list
val is_sw : t -> string -> bool

val all_sw : Task_graph.t -> t
(** The level-1 view: everything in software. *)

val of_ranking :
  ?pinned_sw:string list ->
  top_n:int ->
  Symbad_tlm.Annotation.Profile.t ->
  Task_graph.t ->
  t
(** The designer's level-2 heuristic: the [top_n] most demanding tasks
    (by profile) go to hardware, except those pinned to SW. *)

val refine_to_fpga : t -> (string * string) list -> t
(** Level-3 refinement: move HW tasks into FPGA contexts; raises if a
    task is not currently HW. *)

val move : t -> string -> target -> t
(** The paper's transformation 2: move one module between partitions. *)

val pp : Format.formatter -> t -> unit
