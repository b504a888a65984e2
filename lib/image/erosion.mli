(** Morphological erosion (square structuring element). *)

val apply : Image.t -> Image.t
(** Minimum filter over a 3x3 window; suppresses isolated bright sensor
    noise before edge detection. *)

val work : width:int -> height:int -> int
(** Profiling weight of one frame. *)
