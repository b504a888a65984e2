(** CMOS sensor Bayer stage: RGGB mosaic simulation and demosaicing.

    The sensor sees the scene through per-site colour filters with
    channel-dependent gains; {!demosaic} undoes the gains and smooths
    the residual checkerboard, reconstructing the grayscale frame the
    rest of the pipeline consumes. *)

type channel = R | G | B

val channel_at : int -> int -> channel
(** Colour filter at photosite [(x, y)] in the RGGB pattern. *)

val mosaic : Image.t -> Image.t
(** Simulate the sensor: apply the colour-filter gain per photosite. *)

val demosaic : Image.t -> Image.t
(** Reconstruct gray from a mosaic frame. *)

val work : width:int -> height:int -> int
(** Profiling weight (work units) of one frame. *)
