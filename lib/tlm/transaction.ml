(* Bus transactions at transaction level: the unit of communication once
   the level-1 point-to-point channels are mapped onto a shared bus. *)

type kind =
  | Read
  | Write
  | Bitstream  (* FPGA configuration download (level 3) *)

type t = {
  master : string;  (* initiating component *)
  target : string;  (* addressed component *)
  kind : kind;
  bytes : int;  (* payload size *)
}

let make ~master ~target ~kind ~bytes =
  if bytes < 0 then invalid_arg "Transaction.make: negative size";
  { master; target; kind; bytes }

let kind_to_string = function
  | Read -> "read"
  | Write -> "write"
  | Bitstream -> "bitstream"
