(** Sobel edge detection. *)

val sobel_at : Image.t -> int -> int -> int
(** |gx| + |gy| at one pixel (unscaled). *)

val magnitude : Image.t -> Image.t
(** Gradient-magnitude image (scaled to pixel range). *)

val detect : Image.t -> Image.t
(** Binary edge map: 255 where the scaled magnitude exceeds 40, 0
    elsewhere. *)

val work : width:int -> height:int -> int
