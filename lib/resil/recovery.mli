(** The recovery state machine of the reconfiguration controller, as a
    level-4 netlist with model-checked properties.

    States: OPER (fabric delivers service), DETECT (fault flagged),
    RECOV (bounded re-download / reload), FALLBACK (fabric abandoned,
    software delivers service).  OPER and FALLBACK are {e operational}.
    The discharged contract is the dependability argument in miniature:
    recovery terminates, in bounded time, in an operational state. *)

val netlist : ?max_tries:int -> unit -> Symbad_hdl.Netlist.t
(** The controller: inputs [fault] and [done], registers [state],
    [tries] and the consecutive-non-operational-cycles witness [nonop],
    outputs [operational] and [recovering].  [max_tries] (default 2,
    range 1..3) mirrors the device's re-download bound. *)

val properties :
  ?max_tries:int -> Symbad_hdl.Netlist.t -> Symbad_mc.Prop.t list
(** Six checks: the retry bound holds, successful recovery returns to
    OPER, exhausted recovery degrades to FALLBACK (absorbing), the
    machine is operational again within [max_tries + 2] cycles, and the
    [operational] output is exactly OPER-or-FALLBACK. *)

val check : unit -> Symbad_mc.Engine.report list
(** Build the default netlist and discharge every property with the
    level-4 engine, sequentially and unlimited. *)
