(** Morphological erosion and dilation (square structuring element). *)

val apply : Image.t -> Image.t
(** Minimum filter over a 3x3 window; suppresses isolated bright sensor
    noise before edge detection. *)

val dilate : Image.t -> Image.t
(** Maximum filter, the dual operator. *)

val work : width:int -> height:int -> int
(** Profiling weight of one frame. *)
