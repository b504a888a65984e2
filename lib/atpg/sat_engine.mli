(** SAT-based test generation (the formal engine of Laerte++), working
    on the RTL view: to cover "output bit at polarity within depth d" it
    runs bounded model checking ({!Symbad_mc.Session.bmc}) of the
    invariant "the bit never takes that polarity"; a counterexample is
    the driving input sequence.  A bound that holds at every depth
    proves the point unreachable — a conclusion no simulation-based
    engine can draw. *)

type target = { output : string; bit : int; polarity : bool }

type outcome =
  | Test of int array list  (** input vectors, one per cycle *)
  | Unreachable  (** proven at every depth up to the bound *)
  | Budget_exceeded  (** the governor's budget ran out *)

val all_targets : Symbad_hdl.Netlist.t -> target list
(** Both polarities of every output bit. *)

val cover_target :
  ?max_depth:int ->
  ?gov:Symbad_gov.Gov.t ->
  Symbad_hdl.Netlist.t ->
  target ->
  outcome
(** [gov] bounds and is charged for every SAT call (omitted =
    unlimited); running out yields [Budget_exceeded]. *)

type report = {
  covered : int;
  unreachable : int;
  unresolved : int;
  tests : int array list list;  (** one input sequence per covered target *)
}

val generate :
  ?max_depth:int -> ?gov:Symbad_gov.Gov.t -> Symbad_hdl.Netlist.t -> report
(** Chase every target of the netlist under [gov], as {!cover_target};
    targets that run out of budget count as [unresolved]. *)

val pp_report : Format.formatter -> report -> unit
