(** Test-bench quality evaluation: coverage metrics plus high-level
    fault coverage — the level-1 functional-verification report. *)

type evaluation = {
  model : string;
  engine : string;
  tests : int;
  coverage : Coverage.report;
  fault_coverage : float;
  undetected : string list;  (** fault ids the suite misses *)
}

val evaluate :
  ?pool:Symbad_par.Par.pool ->
  engine:string ->
  Model.t ->
  Model.test list ->
  evaluation
(** Coverage and fault simulation fan out on [pool]; the evaluation is
    identical at any pool width. *)

val compare_engines : ?budget:int -> Model.t -> evaluation list
(** Random vs genetic at equal pattern budget, both seeded 1. *)

val pp_evaluation : Format.formatter -> evaluation -> unit
