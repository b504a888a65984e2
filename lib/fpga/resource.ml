(* A computing resource implementable inside the embedded FPGA: a HW
   module implementing an algorithm.  Area is in abstract logic units;
   it determines bitstream size and context capacity. *)

type t = { name : string; area : int }

let algorithm ~area name =
  if area <= 0 then invalid_arg "Resource.algorithm: area";
  { name; area }

let name r = r.name
let area r = r.area
