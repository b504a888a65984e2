(** The resource governor: one {!Budget} plus live spend accounting,
    threaded through every verification engine so a run always
    terminates on time with the best partial result.

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
    Charging and child registration are domain-safe (atomics); splitting
    of the logical allowances is deterministic, so parallel runs
    reproduce sequential ones at any pool width.

    Telemetry: splits, exhaustions, retries and degradations are
    reported as [gov.*] events and counters whenever [Symbad_obs] is
    enabled (merged at the fan-in when emitted inside a Par job).  The
    tree itself is the budget record: every node keeps its children,
    its retries and its degradations, and {!waterfall} turns them into
    the budget waterfall `symbad report` renders. *)

type t

val create : ?label:string -> Budget.t -> t
(** A root governor over [budget].  [label] names it in telemetry
    (default ["gov"]). *)

val unlimited : t
(** The shared do-nothing governor: unlimited budget.  What engine
    entry points use when handed no governor — identical behaviour to
    the pre-governor code.  It keeps no children, so an
    ungoverned run retains no tree. *)

val get : t option -> t
(** [get (Some g)] is [g]; [get None] is {!unlimited} — the idiom for
    [?gov] optional arguments. *)

val budget : t -> Budget.t
(** The budget this governor was created over (allowances as granted,
    not as remaining). *)

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
    propagate upward). *)

val spent_patterns : t -> int

(** {1 Exhaustion} *)

val exhaustion : t -> Degrade.reason option
(** Why this governor wants the run stopped, or [None] while budget
    remains.  Checks the logical allowances first (atomic reads), then
    the deadline (one clock read) — cheap enough to poll at every step
    boundary. *)

val out_of_budget : t -> bool
(** [exhaustion t <> None]. *)

(** {1 Hierarchy} *)

val split : ?label:string -> t -> int -> t list
(** [split g n] derives [n] child governors, each granted a near-equal
    share of the remaining logical allowances and the same deadline —
    the parallel split (siblings race the same clock).  Child charges
    propagate to [g].  Emits a [gov.split] event.  Raises
    [Invalid_argument] when [n < 1]. *)

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
    worker domains); the reason is kept on the node for {!waterfall}. *)

(** {1 The budget waterfall} *)

type row = {
  label : string;
  parent : string option;  (** the parent row's label *)
  depth : int;  (** tree depth, for indentation *)
  created : int;  (** nodes created under this label *)
  granted_conflicts : int option;
      (** summed grants; [None] if any is unlimited *)
  granted_patterns : int option;
  granted_deadline_s : float option;
      (** the first node's seconds to its deadline at creation *)
  granted_retries : int;  (** the largest retry grant *)
  charged_conflicts : int;  (** spend minus the children's spend *)
  charged_patterns : int;
  subtree_conflicts : int;  (** spend, this label's whole subtree included *)
  subtree_patterns : int;
  retries : int;
  degradations : string list;  (** reasons, sorted and deduplicated *)
}

val waterfall : t -> row list
(** One row per label of the tree below (and including) the given node,
    children after their parent and siblings sorted by label.  Nodes
    that share a label (an engine called more than once under one
    parent) merge into one row, and so do their children, label by
    label.  The rows depend only on the tree's structure and logical
    spend, so a logically budgeted run gives the same rows at any pool
    width.  Read it once the run is over: it reads live counters. *)
