(** Abstract-interpretation engine for the consistency property — the
    technology the paper names for SymbC.

    Domain: powerset of FPGA states ordered by inclusion; worklist
    fixpoint over the CFG; joins at merge points.  For this property the
    powerset domain is exact, so the verdict always agrees with the
    product-reachability engine of {!Check} (the test suite verifies
    this); {!Check} additionally produces counterexample paths. *)

module State_set : Set.S with type elt = Check.fpga_state

val may_states :
  nnodes:int -> entry:int -> (int -> Cfg.edge list) -> State_set.t array
(** The worklist fixpoint over nodes [0 .. nnodes - 1] and the edges
    [successors node] leaves by: per node, the FPGA states that may hold
    when control reaches it, from [Unloaded] at [entry].  A
    reconfiguration edge sets the state, every other edge keeps it.
    Nodes unreachable from [entry] get the empty set.  Unknown
    configurations are not checked. *)

type node_invariant = { node : int; states : Check.fpga_state list }

type verdict =
  | Safe of { invariants : node_invariant list; calls_checked : int }
  | Unsafe of {
      failing_call : string;
      node : int;
      offending_states : Check.fpga_state list;
    }

val analyze : Config_info.t -> Ast.program -> verdict
(** Raises [Invalid_argument] on unknown configurations. *)

val pp_verdict : Format.formatter -> verdict -> unit
