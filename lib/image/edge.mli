(** Sobel edge detection. *)

val detect : Image.t -> Image.t
(** Binary edge map: 255 where the scaled magnitude exceeds 40, 0
    elsewhere. *)

val work : width:int -> height:int -> int
