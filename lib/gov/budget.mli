(** Resource budgets for the verification engines.

    A budget bounds what a verification run may consume along three
    axes: wall-clock time (a deadline), SAT conflicts, and test patterns
    / simulation units.  [None] on an axis means unlimited.  Budgets are immutable descriptions; the mutable spend
    accounting lives in {!Gov}.

    The two logical allowances ([conflicts], [patterns]) are
    deterministic currencies: splitting and spending them depends only
    on the inputs, never on wall-clock time or pool width.  The
    [deadline] is a best-effort wall-clock cutoff polled cooperatively
    at engine step boundaries. *)

type t = {
  deadline : float option;
      (** absolute host instant ([Unix.gettimeofday] scale) after which
          the run must degrade; [None] = no deadline *)
  conflicts : int option;
      (** SAT-conflict allowance shared by every solver call under this
          budget; [None] = unlimited *)
  patterns : int option;
      (** test-pattern / simulation-unit allowance (ATPG vectors
          generated, PCC faults classified); [None] = unlimited *)
  retries : int;
      (** portfolio retries: how many times an [Inconclusive] engine run
          may be re-dispatched under the remaining budget (default 0) *)
}

val unlimited : t
(** No deadline, no allowances, no retries — the behaviour of every
    engine before the governor existed. *)

val make :
  ?deadline_s:float ->
  ?conflicts:int ->
  ?patterns:int ->
  ?retries:int ->
  unit ->
  t
(** [make ~deadline_s:2.5 ()] is a budget expiring 2.5 host seconds from
    now.  [deadline_s] is {e relative}; the stored {!field-deadline} is
    absolute.  Negative allowances are clamped to 0 (an already-exhausted
    budget). *)

val remaining_s : t -> float option
(** Seconds until the deadline (negative once passed); [None] when the
    budget has no deadline. *)

val deadline_over : t -> bool
(** Has the wall-clock deadline passed?  Always [false] without one. *)

val split : n:int -> t -> t list
(** [split ~n t] divides the logical allowances into [n] near-equal
    shares (earlier shares receive the remainder, so the shares sum
    exactly to the allowance).  The deadline and retry count are
    inherited by every share — parallel siblings race the same
    wall clock.  Deterministic: depends only on [t] and [n]. *)

val slice : fraction:float -> t -> t
(** [slice ~fraction t] is the sequential share of [t]: logical
    allowances scaled by [fraction] (clamped to [0, 1], rounded down)
    and the deadline pulled forward to [now + fraction * remaining].
    What a flow level grants to one phase, leaving the rest for the
    phases after it. *)
