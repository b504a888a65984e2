(** CDCL SAT solver.

    MiniSat architecture: two-watched-literal propagation, first-UIP
    learning, activity-based decisions with phase saving, Luby restarts.
    Literals are non-zero ints: [v] is variable [v >= 1] positive, [-v]
    its negation.

    {b The search trajectory is part of the contract.}  Every decision,
    propagation and learned clause — so every conflict count, model and
    counterexample — is a function of the calls made, and stays fixed
    across changes to the solver's data structures: the budgeted verdict
    mixes in [test/golden/gov.json] and the verdicts held in the
    verification cache rely on it.  Two orders
    decide it besides the literal order inside each clause.  A decision
    takes the unassigned variable of greatest activity, ties going to
    the lowest index.  A literal's watchers are visited most recently
    added first, and the ones that stay are re-added in visiting order,
    so the next visit runs them in reverse. *)

type t

type result = Sat | Unsat | Unknown
(** [Unknown]: the governor's budget ran out — its conflict allowance
    or its wall-clock deadline (see {!Symbad_gov.Gov}). *)

val create : int -> t
(** [create n] is a solver over variables [1..n]. *)

val nvars : t -> int

val new_var : t -> int
(** Allocate and return a fresh variable. *)

val add_clause : t -> int list -> unit
(** Add a clause.  Tautologies and satisfied clauses are dropped; the
    empty clause makes the instance permanently unsatisfiable.

    Safe to call between [solve] calls: any search state left by the
    previous call is backtracked to the root level first, so incremental
    callers may interleave solving and clause addition freely.

    {b Activation-literal convention} (the incremental-query idiom used
    by {!Symbad_mc.Session}): to pose a retractable query [Q], allocate a
    fresh variable [a] with {!new_var}, add [Q] guarded as
    [add_clause s [-a; q]] for each clause [q] of [Q], and solve with
    [~assumptions:[a]].  While [a] is not assumed the guarded clauses are
    vacuously satisfiable, so they never pollute later queries; to retire
    the query permanently, add the unit clause [[-a]].  Because [a] is
    fresh and occurs in no other clause, an [Unsat] answer under
    [~assumptions:[a]] proves the unguarded [Q] is unsatisfiable with the
    rest of the CNF. *)

val solve : ?assumptions:int list -> ?gov:Symbad_gov.Gov.t -> t -> result
(** Decide satisfiability under the given assumption literals.
    Raises [Invalid_argument] if an assumption is [0] or names a
    variable beyond {!nvars}, as {!add_clause} does.

    [gov] is the only budget: its conflict allowance caps this call, its
    deadline is polled at every conflict, and the conflicts actually
    spent are charged back to it on return (on every exit path).  An
    exhausted governor yields [Unknown] immediately.  Without [gov] the
    search runs to completion.  The effort a call spent is the
    difference of {!stats} around it. *)

val model_value : t -> int -> bool
(** Value of a variable in the model; meaningful only right after [solve]
    returned [Sat]. *)

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  learned : int;
  restarts : int;
}

val stats : t -> stats
(** Lifetime totals for the solver instance. *)
