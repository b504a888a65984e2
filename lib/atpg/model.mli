(** The device-under-verification abstraction for high-level ATPG: a
    deterministic behavioural model with declared inputs, a
    coverage-point universe, and a high-level fault list. *)

type fault = { fid : string }

type t = {
  name : string;
  inputs : (string * int) list;  (** input name, bit width *)
  universe : Coverage.point list;
  faults : fault list;
  run : ?cover:Coverage.t -> ?fault:fault -> int array -> int array;
      (** input values (per [inputs] order, masked) -> outputs *)
}

type test = int array

val run : ?cover:Coverage.t -> ?fault:fault -> t -> test -> int array

val coverage_report : ?pool:Symbad_par.Par.pool -> t -> test list -> Coverage.report

val detected_faults : ?pool:Symbad_par.Par.pool -> t -> test list -> fault list
(** A test detects a fault when outputs differ from the fault-free run;
    fault simulation runs one job per fault on [pool]. *)

val fault_coverage : ?pool:Symbad_par.Par.pool -> t -> test list -> float
