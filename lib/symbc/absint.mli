(** Abstract interpretation of the FPGA state — the technology the
    paper names for SymbC.

    Domain: powerset of FPGA states ordered by inclusion; worklist
    fixpoint over a graph; joins at merge points.  For this property the
    powerset domain is exact: over a program's CFG the fixpoint equals
    the certificate of {!Check}, which gives the verdict (the test suite
    verifies this node by node).  The reconfiguration lints read the
    fixpoint. *)

module State_set : Set.S with type elt = Check.fpga_state

val may_states :
  nnodes:int -> entry:int -> (int -> Cfg.edge list) -> State_set.t array
(** The worklist fixpoint over nodes [0 .. nnodes - 1] and the edges
    [successors node] leaves by: per node, the FPGA states that may hold
    when control reaches it, from [Unloaded] at [entry].  A
    reconfiguration edge sets the state, every other edge keeps it.
    Nodes unreachable from [entry] get the empty set.  Unknown
    configurations are not checked. *)
