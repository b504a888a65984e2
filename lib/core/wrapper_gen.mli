(** Automated interface synthesis with generated checkers — the paper's
    "foreseeable options": "Automated interface synthesis is part of the
    foreseeable options, and also checkers for those interfaces could be
    automatically generated."

    From an interface specification this module synthesises the RTL
    wrapper converting the HW module's req/ack protocol to the
    transactional take/valid protocol (one-slot register or two-slot
    skid buffer), derives the checker properties from the same
    specification, and verifies the wrapper against them. *)

type spec = {
  interface_name : string;
  data_width : int;
  depth : int;  (** buffer slots: 1 or 2 *)
}

val make_spec :
  ?interface_name:string -> ?data_width:int -> ?depth:int -> unit -> spec
(** Defaults: "wrapper", 8 bits, depth 1. *)

val synthesize : spec -> Symbad_hdl.Netlist.t
(** Interface: inputs [req], [data], [take]; outputs [ack], [valid],
    [out].  Depth 2 supports flow-through (accept while draining). *)

val checkers : spec -> Symbad_hdl.Netlist.t -> Symbad_mc.Prop.t list
(** The interface-correctness properties derived from the spec:
    ack-implies-req, no data loss, valid/head coherence, data stability,
    capacity freeing, and occupancy conservation
    (count' = count + accepted - taken). *)

val synthesize_and_verify :
  spec ->
  Symbad_hdl.Netlist.t * Symbad_mc.Prop.t list * Symbad_mc.Engine.report list
(** The push-button flow: synthesise, generate checkers, model check
    (BMC to depth 12). *)
