(** The case-study application: the Figure 2 face recognition system
    (thirteen modules, twenty identities under multiple poses) and its
    C reference model. *)

type workload = {
  size : int;  (** frame side, pixels *)
  identities : int;  (** database population *)
  frames : (int * int) list;  (** camera script: (identity, pose) *)
}

val default_workload : workload
(** 8 frames, 64-pixel frames, 20 identities. *)

val smoke_workload : workload
(** 3 frames, 32 pixels, 6 identities — for tests, fault campaigns and
    the report. *)

val database : workload -> Symbad_image.Database.t

val graph : workload -> Task_graph.t
(** The Figure 2 task graph.  Deterministic in the workload. *)

val reference_trace : workload -> Symbad_sim.Trace.t
(** The C reference model's trace, with the same stream labels as the
    simulated models. *)

val pinned_sw : string list
(** Environment models (sources, final decision) that stay on the CPU. *)

val level2_mapping :
  profile:Symbad_tlm.Annotation.Profile.t -> Task_graph.t -> Mapping.t
(** Profile ranking + designer knowledge (DISTANCE and ROOT to HW). *)

val level3_refinement : (string * string) list
(** The paper's choice: DISTANCE in [config1], ROOT in [config2]. *)
