(** Synthetic face generator — the substitute for the paper's
    low-resolution CMOS camera and its human subjects.

    An {!identity} is a deterministic set of facial-geometry parameters
    derived from an identity number; a {!pose} perturbs the rendering
    (translation, scale, brightness, sensor noise).  Faces are rendered
    as smooth-edged ellipses and bars, giving the downstream pipeline
    realistic structure. *)

type identity
type pose

val identity : int -> identity
(** Geometry of identity [id] (deterministic in [id]). *)

val pose : int -> pose
(** Pose [0] is the canonical frontal pose (no perturbation, no noise);
    other ids give deterministic perturbations. *)

val render : ?size:int -> identity -> pose -> Image.t
(** Render a frame ([size] defaults to 64). *)

val frame : ?size:int -> identity:int -> pose:int -> unit -> Image.t
(** [render] composed with {!identity} and {!pose}. *)
