(** The case-study application: the Figure 2 face recognition system
    (thirteen modules, twenty identities under multiple poses) and its
    C reference model. *)

type workload = {
  size : int;  (** frame side, pixels *)
  identities : int;  (** database population *)
  frames : (int * int) list;  (** camera script: (identity, pose) *)
}

val camera_script : identities:int -> int -> (int * int) list
(** [camera_script ~identities n]: [n] frames, frame [i] showing
    identity [2i mod identities] in pose [1 + i mod 4].  Raises
    [Division_by_zero] when [identities] is 0. *)

val default_workload : workload
(** 8 frames of the camera script, 64-pixel frames, 20 identities. *)

val smoke_workload : workload
(** 3 frames, 32 pixels, 6 identities — for tests, fault campaigns and
    the report. *)

val deadline_ns : int
(** The level-2 real-time requirement: one frame every 40 ms
    (25 frames/s). *)

val pinned_sw : string list
(** Environment models (sources, final decision) that stay on the CPU. *)

val level2_mapping :
  profile:Symbad_tlm.Annotation.Profile.t -> Task_graph.t -> Mapping.t
(** Profile ranking + designer knowledge (DISTANCE and ROOT to HW). *)

val level3_refinement : (string * string) list
(** The paper's choice: DISTANCE in [config1], ROOT in [config2]. *)

(** The case study of one workload, each part built at most once, when
    first forced: the database is enrolled once and feeds the graph and
    the reference model, and each level reads the parts before it.

    OCaml's [Lazy.force] raises [Lazy.Undefined] when two domains force
    the same suspension, so no [Symbad_par.Par] job may force a part: a
    caller forces what its jobs read before the fan-out. *)
type case_study = {
  database : Symbad_image.Database.t Lazy.t;
  graph : Task_graph.t Lazy.t;  (** the Figure 2 task graph *)
  reference : Symbad_sim.Trace.t Lazy.t;
      (** the C reference model's trace, with the same stream labels as
          the simulated models *)
  level1 : Level1.result Lazy.t;  (** the untimed functional run *)
  mapping2 : Mapping.t Lazy.t;  (** {!level2_mapping} of level 1's profile *)
  mapping3 : Mapping.t Lazy.t;  (** [mapping2] refined by {!level3_refinement} *)
  level2 : Level2.result Lazy.t;  (** the default level-2 run of [mapping2] *)
  level3 : Level3.result Lazy.t;  (** the default level-3 run of [mapping3] *)
}

val case_study : workload -> case_study
(** Deterministic in the workload; builds nothing until a part is
    forced. *)

val graph : workload -> Task_graph.t
val reference_trace : workload -> Symbad_sim.Trace.t
(** The graph and the reference trace of a fresh {!case_study}. *)
