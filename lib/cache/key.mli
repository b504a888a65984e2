(** Content-addressed cache keys: MD5 over a canonical text rendering of
    the netlist, the properties, the budget class, the engine version
    and the numeric engine parameters.  Any edit to any of them changes
    the key. *)

val make :
  netlist:Symbad_hdl.Netlist.t ->
  props:Symbad_mc.Prop.t list ->
  budget:Symbad_gov.Budget.t ->
  params:(string * int) list ->
  unit ->
  string
(** The key, as 32 lowercase hex characters.  [params] carries the
    numeric engine knobs (e.g. [max_depth], [pcc_depth]) in a fixed
    caller-chosen order. *)
