(** Bus transactions. *)

type kind =
  | Read
  | Write
  | Bitstream  (** FPGA configuration download (level-3 traffic) *)

type t = {
  master : string;  (** initiating component *)
  target : string;  (** addressed component *)
  kind : kind;
  bytes : int;  (** payload size *)
}

val make : master:string -> target:string -> kind:kind -> bytes:int -> t
val kind_to_string : kind -> string
