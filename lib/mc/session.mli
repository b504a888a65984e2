(** Incremental verification sessions: one persistent solver pair per
    (netlist, property).

    Frames are unrolled on demand and each BMC bound is posed as a
    retractable query through an activation literal (the convention
    documented on {!Symbad_sat.Solver.add_clause}), so learned clauses
    survive across bounds and into the inductive step.  {!bmc} walks
    the bounds for a plain BMC query; {!Engine} asks the transition
    query ({!induction} at [k = 0]) first, then drives the base case
    and the inductive step together.

    Sessions are single-domain state: create and drive a session from
    one domain (the [Par] fan-outs in {!Engine.check_all} give each
    property its own session inside its own job). *)

type t

val create : Symbad_hdl.Netlist.t -> Prop.t -> t
(** Validates the property against the netlist (raises
    [Invalid_argument] as {!Prop.validate} does).  Solvers are built
    lazily: a session that only runs induction never pays for the
    reset-initialised instance, and vice versa. *)

type base_result =
  | Base_holds  (** no counterexample ending at exactly this bound *)
  | Base_cex of Trace.t  (** concrete reset-path violation *)
  | Base_unknown  (** the governor's budget ran out *)

val check_bound : ?gov:Symbad_gov.Gov.t -> t -> int -> base_result
(** [check_bound t k] decides whether some reset path violates the
    property at exactly depth [k] (bounds below [k] are {e not}
    re-examined — drive bounds in ascending order for BMC semantics).
    On [Base_holds] the bound is recorded as closed and [P@k] is
    asserted into the instance; re-posing a closed bound returns
    immediately without solving or allocating variables.  [gov] bounds
    and is charged for the embedded SAT call, exactly as
    {!Symbad_sat.Solver.solve}. *)

val bmc : ?gov:Symbad_gov.Gov.t -> t -> depth:int -> base_result
(** Bounded model checking: {!check_bound} at [0, 1, .., depth] in
    ascending order, stopping at the first bound that is not
    [Base_holds].  [Base_holds] means no reset path violates the
    property within [depth] steps (a step property at bound [k] spans
    states [k] and [k + 1]); [Base_unknown] means the governor ran out
    before or inside some bound, every lower bound having held.  [gov]
    is polled before each bound. *)

type step_result =
  | Inductive
  | Cti of Trace.t
      (** counterexample-to-induction: a [k]-step free-state path
          satisfying the property that then violates it — not
          necessarily reachable *)
  | Step_unknown  (** the governor's budget ran out *)

val induction : ?gov:Symbad_gov.Gov.t -> t -> int -> step_result
(** The inductive step at depth [k >= 0] over the free-initial-state
    instance: assumes [P@0 .. P@k-1] and [-P@k] — nothing is asserted,
    so one instance serves every [k] and repeated queries are cheap.
    Together with [bmc ~depth:k] returning [Base_holds], [Inductive]
    proves the property.  At [k = 0] the assumptions are [-P@0] alone:
    [Inductive] means the property holds over one transition from
    every state, reachable or not, so it needs no base case.  Raises
    [Invalid_argument] when [k < 0]. *)

val base_nvars : t -> int
(** Variable count of the reset-initialised instance (0 before first
    use) — exposed so tests can assert the absence of [nvars] drift on
    repeated queries. *)

val step_nvars : t -> int
(** Same for the free-initial-state instance. *)
