(* A computing resource implementable inside the embedded FPGA: a HW
   module (algorithm) or a register file.  Area is in abstract logic
   units; it determines bitstream size and context capacity. *)

type kind = Algorithm | Register_file

type t = { name : string; kind : kind; area : int }

let algorithm ~area name =
  if area <= 0 then invalid_arg "Resource.algorithm: area";
  { name; kind = Algorithm; area }

let name r = r.name
let area r = r.area
let kind r = r.kind

let pp fmt r =
  let k = match r.kind with Algorithm -> "alg" | Register_file -> "regs" in
  Fmt.pf fmt "%s(%s,%d)" r.name k r.area
