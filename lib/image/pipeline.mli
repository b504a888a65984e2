(** The C reference model: the complete Figure 2 recognition pipeline as
    a plain composition of functions.

    The level-1 dataflow model runs the same stage functions, which is
    what makes level-by-level trace comparison exact. *)

val border_bins : int
val line_count : int

val feature_dim : int
(** Length of the concatenated signature (border + row/col line sums). *)

type stage_outputs = {
  raw : Image.t;  (** camera (Bayer mosaic) *)
  gray : Image.t;  (** BAYER *)
  eroded : Image.t;  (** EROSION *)
  edges : Image.t;  (** EDGE *)
  ellipse : Ellipse.t;  (** ELLIPSE (fallback centre if the fit fails) *)
  border : int array;  (** CRTBORDER *)
  lines : Line.scan;  (** CRTLINE *)
  line_features : int array;  (** CALCLINE *)
  features : int array;  (** concatenated signature *)
}

val fallback_ellipse : Image.t -> Ellipse.t
(** Centre-of-image ellipse used when the fit has no support. *)

val camera : ?size:int -> identity:int -> pose:int -> unit -> Image.t
(** A raw sensor frame: synthetic face passed through the Bayer mosaic. *)

val extract : Image.t -> stage_outputs
(** Run all feature-extraction stages on a raw frame. *)

val features_of_frame : Image.t -> int array

val distances : Database.t -> int array -> (int * int) list
(** CALCDIST/DISTANCE/ROOT: [(identity, distance)] per database entry. *)

val recognize : Database.t -> Image.t -> Winner.verdict
(** The nearest database entry; never rejects. *)

val enroll : ?size:int -> identities:int -> unit -> Database.t
(** Enroll [identities] identities from their frontal poses. *)

val stage_work : size:int -> (string * int) list
(** Work units per firing for each Figure 2 module, the profiling model. *)
