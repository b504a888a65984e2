(** The predefined RTL IPs of level 4: the FPGA-mapped datapaths of the
    case study, the RTL-to-TL handshake wrapper, a FIFO controller, and
    a teaching counter.  Each safety-critical module also has a
    seeded-bug variant used by the verification experiments. *)

val zext : Expr.t -> from:int -> to_:int -> Expr.t
(** Zero extension. *)

val counter : width:int -> Netlist.t
(** Up-counter with [enable]/[clear] inputs and an [at_max] flag. *)

val distance_datapath : ?data_width:int -> ?acc_width:int -> unit -> Netlist.t
(** DISTANCE: streamed sum of squared differences.  Inputs [start]
    (clears the accumulator), [valid], [a], [b]; output [acc]. *)

val distance_datapath_buggy : ?data_width:int -> ?acc_width:int -> unit -> Netlist.t
(** Seeded memory-init error: [start] does not clear the accumulator. *)

val root_datapath : ?width:int -> unit -> Netlist.t
(** ROOT: non-restoring integer square root, one iteration per two
    operand bits.  Inputs [start], [n]; outputs [result], [busy],
    [done].  [width] must be even and >= 4. *)

val root_correctness : width:int -> unit -> Expr.t
(** The functional-correctness invariant of {!root_datapath}:
    [done => res^2 <= n < (res+1)^2], evaluated at [2 * width] bits. *)

val handshake_wrapper : ?data_width:int -> unit -> Netlist.t
(** One-slot RTL-to-TL protocol converter.  Inputs [req], [data],
    [take]; outputs [ack], [valid], [out]. *)

val handshake_wrapper_buggy : ?data_width:int -> unit -> Netlist.t
(** Seeded protocol bug: acknowledges even when full, dropping data. *)

val fifo_ctrl : ?addr_width:int -> unit -> Netlist.t
(** Counter-based FIFO flags for depth [2^addr_width].  Inputs [push],
    [pop]; outputs [full], [empty], [count]. *)

val fifo_ctrl_buggy : ?addr_width:int -> unit -> Netlist.t
(** Seeded off-by-one: [full] asserts one entry late. *)

val argmin_datapath : ?data_width:int -> ?idx_width:int -> unit -> Netlist.t
(** WINNER: streaming argmin FSM.  [start] clears; each [valid] cycle
    consumes one candidate distance [d]; outputs the running minimum
    ([best]), its index ([best_idx]) and the candidate count. *)
