(** 8-bit grayscale images.

    Pixels are ints clamped to [0, 255].  Binary masks (edge maps) use
    the values 0 and 255.

    The kernels of the case study work on the flat pixel array
    ({!pixels}, {!of_pixels}): row-major, values in [0, 255], borders
    replicated; each allocates its output and never writes its input. *)

type t

val create : width:int -> height:int -> t
(** A black image.  Raises [Invalid_argument] on non-positive sizes. *)

val of_pixels : width:int -> height:int -> int array -> t
(** The image over a row-major pixel array, which it takes over (no
    copy); the values must lie in [0, 255].  Raises [Invalid_argument]
    on non-positive sizes or an array whose length is not
    [width * height]. *)

val width : t -> int
val height : t -> int

val pixels : t -> int array
(** The row-major pixel array itself, not a copy: [get img x y] is
    [(pixels img).(y * width img + x)].  Read it; never write it. *)

val clamp : int -> int
(** Clamp a value to the pixel range [0, 255]. *)

val get : t -> int -> int -> int
(** [get img x y]; raises [Invalid_argument] out of bounds. *)

val get_clamped : t -> int -> int -> int
(** Like {!get} but replicating border pixels outside the image — the
    convolution boundary policy. *)

val set : t -> int -> int -> int -> unit
(** [set img x y v] stores [clamp v]. *)

val fill : t -> int -> unit
val copy : t -> t

val equal : t -> t -> bool

val mean : t -> int
val histogram : t -> int array
(** 256 bins. *)

val count_above : t -> int -> int
(** Number of pixels strictly above a threshold. *)

val digest : t -> string
(** Compact content digest (dimensions, mean, FNV-1a hash), used for
    trace comparison between refinement levels. *)

val pp : Format.formatter -> t -> unit
