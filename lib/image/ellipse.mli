(** Moments-based ellipse fitting on binary edge maps.

    The head contour dominates a face's edge map; the first and second
    moments of the edge-pixel cloud localise the face independently of
    pose translation and scale. *)

type t = {
  cx : float;
  cy : float;
  rx : float;  (** half-axis along x *)
  ry : float;  (** half-axis along y *)
  support : int;  (** edge pixels used by the fit *)
}

val fit : Image.t -> t option
(** [None] when fewer than 16 edge pixels. *)

val digest : t -> string
(** Quantised digest for trace comparison. *)

val pp : Format.formatter -> t -> unit
val work : width:int -> height:int -> int
