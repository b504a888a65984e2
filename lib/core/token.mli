(** Data tokens flowing through the system models.

    The same values travel through every refinement level — that is what
    makes trace comparison meaningful; only their *transport* model
    changes per level. *)

type t =
  | Frame of Symbad_image.Image.t
  | Shape of Symbad_image.Ellipse.t
  | Scan of Symbad_image.Line.scan
  | Vec of int array
  | Mat of int array array
  | Num of int
  | Verdict of Symbad_image.Winner.verdict

val bytes : t -> int
(** Transport size, used to size bus transactions at levels 2-3. *)

val digest : t -> string
(** Canonical trace representation. *)

val garble : t -> t
(** Deterministic payload corruption (fault-injection campaigns): xors a
    fixed mask into numeric payloads ([Vec]/[Mat]/[Num]), guaranteed to
    change their digest while keeping values non-negative.  Structural
    tokens pass through unchanged. *)

(** Typed accessors; raise [Invalid_argument] on protocol violations so
    task-graph wiring errors fail fast. *)

val to_frame : t -> Symbad_image.Image.t
val to_shape : t -> Symbad_image.Ellipse.t
val to_scan : t -> Symbad_image.Line.scan
val to_vec : t -> int array
val to_mat : t -> int array array
