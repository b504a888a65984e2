(** Miter construction: two netlists over shared inputs with an
    all-outputs-equal comparator; BMC on it decides bounded fault
    detectability. *)

val build : Symbad_hdl.Netlist.t -> Symbad_hdl.Netlist.t -> Symbad_hdl.Netlist.t
(** Requires identical input and output interfaces.  The result exposes
    the comparator as output ["equal"] plus one equality per original
    output. *)

val detectable :
  ?depth:int ->
  ?gov:Symbad_gov.Gov.t ->
  Symbad_hdl.Netlist.t ->
  Symbad_hdl.Netlist.t ->
  [ `Detectable of Symbad_mc.Trace.t
  | `Undetectable_within of int
  | `Resource_out ]
(** Is there an input sequence of length <= [depth] (default 10) after
    which the designs disagree on some output?  [gov] bounds the
    underlying BMC run; exhaustion yields [`Resource_out]. *)
