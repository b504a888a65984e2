(** Forward abstract interpretation over netlist registers.

    One fixpoint computes, per register, a {!Value_domain} abstraction
    of every value the register can carry in any reachable cycle:
    registers start at their reset value (or X when an explicit reset
    input exists that their next-state cone ignores), inputs are the
    full range every cycle, and the next-state functions are iterated —
    with widening at the sequential back-edge — until stable.

    The fixpoint powers the four semantic rules ([net.x-prop],
    [net.range], [net.unreachable-state], [net.const-reg]); [net.range]
    and [net.const-reg] pair each finding with the proof obligation
    {!Lint.escalate} dispatches to the model checker.  Only structurally sound netlists are interpreted: a netlist
    {!Symbad_hdl.Netlist.make} would reject yields no findings here —
    the syntactic rules own those defects. *)

type analysis

val analyze : Symbad_hdl.Netlist.t -> analysis option
(** [None] when the netlist is not structurally sound. *)

val reg_value : analysis -> string -> Value_domain.t option
(** The register's abstract value at the fixpoint. *)

(** {1 The rule implementations}

    Each reads the fixpoint its caller computed once for the run. *)

val rule_x_prop : Netlist_rules.ctx -> analysis -> Diagnostic.t list
val rule_unreachable_state : Netlist_rules.ctx -> analysis -> Diagnostic.t list

(** {1 Findings that carry proof obligations}

    Each finding comes with its residual proof obligation when one is
    definable: an invariant whose refutation confirms the warning and
    whose proof discharges it. *)

val rule_const_reg :
  Netlist_rules.ctx -> analysis -> (Diagnostic.t * Symbad_mc.Prop.t option) list
(** One finding per constant register, in register order, each with
    its constancy claim. *)

val rule_range :
  Netlist_rules.ctx -> analysis -> (Diagnostic.t * Symbad_mc.Prop.t option) list
(** One finding per arithmetic node that may wrap, in site order
    (next-state functions by register, then outputs; DFS order within
    a site), with its no-wrap claim when the widened operation fits
    {!Symbad_hdl.Bitvec.max_width}. *)
