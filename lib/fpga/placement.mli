(** Context-partition tuning: how to split FPGA-mapped resources among
    configurations so as to minimise reconfiguration traffic. *)

type partition = Resource.t list list
(** Groups of resources; group [i] becomes context ["config<i+1>"]. *)

val evaluate : calls:string list -> partition -> int * int
(** [evaluate ~calls p] replays the dynamic resource-invocation sequence
    [calls] and returns [(reconfigurations, bitstream_bytes)]. *)

val feasible_partitions :
  capacity:int -> max_contexts:int -> Resource.t list -> partition list
(** All set partitions into at most [max_contexts] groups each fitting in
    [capacity] area units.  Exponential: intended for case-study sizes. *)

type evaluation = {
  partition : partition;
  reconfigurations : int;
  bitstream_bytes : int;
}

val best_partition :
  capacity:int ->
  max_contexts:int ->
  calls:string list ->
  Resource.t list ->
  evaluation option
(** Exhaustive optimum (fewest reconfigurations, bytes as tie-break).
    Progress is reported as ["placement.exhaustive"] obs events (never
    stdout). *)

val sweep :
  capacity:int ->
  max_contexts:int ->
  calls:string list ->
  Resource.t list ->
  evaluation list
(** Every feasible partition with its cost, best first; progress as
    ["placement.sweep"] obs events. *)

val pp_partition : Format.formatter -> partition -> unit
