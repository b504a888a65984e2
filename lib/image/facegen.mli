(** Synthetic face generator — the substitute for the paper's
    low-resolution CMOS camera and its human subjects.

    An identity is a deterministic set of facial-geometry parameters
    derived from an identity number; a pose perturbs the rendering
    (translation, scale, brightness, sensor noise).  Faces are rendered
    as smooth-edged ellipses and bars, giving the downstream pipeline
    realistic structure. *)

val frame : ?size:int -> identity:int -> pose:int -> unit -> Image.t
(** The face of identity number [identity] in pose number [pose],
    rendered at [size] pixels square (default 64). *)
