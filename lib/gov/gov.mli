(** The resource governor: one {!Budget} plus live spend accounting and
    a {!Cancel} token, threaded through every verification engine so a
    run always terminates on time with the best partial result.

    A governor is handed to an engine entry point ([Sat.Solver.solve],
    [Mc.Engine.check], the ATPG generators, [Pcc.run], the LPV checks,
    [Core.Flow.run]); the engine polls {!out_of_budget} at step
    boundaries, charges what it consumed ({!charge_conflicts},
    {!charge_patterns}), and degrades to an inconclusive partial result
    when the governor says stop (see {!Degrade}).

    Hierarchy: {!split} and {!slice} derive child governors over the
    {e remaining} budget — flow levels split across engines, engines
    split across parallel jobs.  A child's charges propagate to every
    ancestor, so unspent allowance flows forward to whatever runs next.
    Charging is domain-safe (atomics); splitting of the logical
    allowances is deterministic, so parallel runs reproduce sequential
    ones at any pool width.

    Telemetry: splits, exhaustions, retries and degradations are
    reported as [gov.*] events and counters whenever [Symbad_obs] is
    enabled (merged at the fan-in when emitted inside a Par job).  With a
    {!Ledger} attached at the root, every node creation, charge, retry
    and degradation is additionally recorded as a timestamped ledger
    entry — the budget waterfall `symbad report` renders. *)

type t

val create : ?label:string -> ?cancel:Cancel.t -> ?ledger:Ledger.t -> Budget.t -> t
(** A root governor over [budget].  [label] names it in telemetry
    (default ["gov"]); [cancel] defaults to {!Cancel.none}; [ledger],
    when given, records the budget timeline of the whole tree (children
    inherit it). *)

val unlimited : t
(** The shared do-nothing governor: unlimited budget, never cancelled.
    What engine entry points use when handed no governor — identical
    behaviour to the pre-governor code. *)

val get : t option -> t
(** [get (Some g)] is [g]; [get None] is {!unlimited} — the idiom for
    [?gov] optional arguments. *)

val label : t -> string
val budget : t -> Budget.t
(** The budget this governor was created over (allowances as granted,
    not as remaining — see {!remaining}). *)

val cancel_token : t -> Cancel.t

val ledger : t -> Ledger.t option
(** The ledger this tree records into, if one was attached. *)

(** {1 Spend accounting} *)

val charge_conflicts : t -> int -> unit
(** Record SAT conflicts spent.  Propagates to every ancestor.
    Domain-safe; negative or zero charges are ignored. *)

val charge_patterns : t -> int -> unit
(** Record test patterns / simulation units spent.  Same contract as
    {!charge_conflicts}. *)

val conflicts_left : t -> int option
(** Allowance minus spend, floored at 0; [None] = unlimited. *)

val patterns_left : t -> int option

val spent_conflicts : t -> int
(** Total conflicts charged to this node and its whole subtree (charges
    propagate upward).  At the root this equals the ledger's
    {!Ledger.spent_conflicts} exactly. *)

val spent_patterns : t -> int

val remaining : t -> Budget.t
(** The budget still available: granted allowances minus spend, same
    deadline, same retry count.  What {!split} and {!slice} divide. *)

(** {1 Exhaustion} *)

val exhaustion : t -> Degrade.reason option
(** Why this governor wants the run stopped, or [None] while budget
    remains.  Checks the cancel flag and the logical allowances first
    (atomic reads), then the deadline (one clock read) — cheap enough to
    poll at every step boundary. *)

val out_of_budget : t -> bool
(** [exhaustion t <> None]. *)

(** {1 Hierarchy} *)

val split : ?label:string -> t -> int -> t list
(** [split g n] derives [n] child governors sharing the cancel token,
    each granted a near-equal share of the remaining logical allowances
    and the same deadline — the parallel split (siblings race the same
    clock).  Child charges propagate to [g].  Emits a [gov.split]
    event.  Raises [Invalid_argument] when [n < 1]. *)

val slice : ?label:string -> fraction:float -> t -> t
(** [slice g ~fraction] derives one child governor over
    [Budget.slice ~fraction (remaining g)] — the sequential split: the
    child gets an earlier deadline and a proportional allowance, and
    whatever it leaves unspent is still in [g] for the next phase. *)

(** {1 Portfolio retry} *)

val with_retry :
  ?label:string ->
  t ->
  inconclusive:('a -> bool) ->
  (attempt:int -> 'a) ->
  'a
(** [with_retry g ~inconclusive run] dispatches [run ~attempt:0]; while
    the result is inconclusive, budget remains and fewer than
    [(budget g).retries] retries have been spent, it re-dispatches with
    the next attempt number (the engine re-seeds or restarts from it).
    Emits a [gov.retry] event per re-dispatch. *)

(** {1 Telemetry} *)

val note_degraded : t -> what:string -> Degrade.reason -> unit
(** Report that a run under this governor degraded: a [gov.degrade]
    warning event plus the [gov.degradations] counter (merged from
    worker domains), and a ledger entry when one is attached. *)

val pp : Format.formatter -> t -> unit
(** Label, remaining budget and exhaustion state. *)
