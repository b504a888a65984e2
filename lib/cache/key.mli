(** Content-addressed cache keys: the MD5 of the digest of the library
    sources, the netlist, the properties, the budget class and the
    escalation flag.  Any edit to any of them, or to any code under
    [lib/], changes the key. *)

val make :
  netlist:Symbad_hdl.Netlist.t ->
  props:Symbad_mc.Prop.t list ->
  budget:Symbad_gov.Budget.t ->
  escalate:bool ->
  string
(** The key, as 32 lowercase hex characters.  Of the budget's deadline
    only its presence counts, not its instant. *)
