(** The level-4 model-checking engine: first the transition query —
    can the property fail over one transition from a free state? — whose
    Unsat proves it at every bound; otherwise it interleaves BMC
    (counterexample hunting) and k-induction (proof attempts) for
    increasing k, falling back to exact reachability when tractable.
    Every property gets a proof certificate or a counterexample, as the
    flow requires.

    Incremental: [check] drives one {!Session} per property — a
    persistent solver pair — so bound k+1 reuses everything learned
    closing bounds 0..k, and the inductive step at every k reuses the
    free-state instance the transition query built.  Bounds advance in
    fixed-width windows purely for budget accounting (the governor's
    allowance is pre-split per bound, independent of the pool width);
    parallelism lives in [check_all ~pool], which fans out one job per
    property.  Reports are identical at any pool width. *)

type verdict =
  | Proved of { method_ : string; depth : int }
      (** proof certificate: the method and the depth it closed at —
          ["transition"] at depth 0 (the property holds over every
          transition, reachable or not), ["k-induction"] at its k, or
          ["reachability(N states)"] from the explicit fallback *)
  | Falsified of Trace.t  (** concrete counterexample trace *)
  | Unknown of { reason : string }
      (** no verdict within the resource budget; [checked_depth] in the
          report is the best bound fully explored — the partial result *)

type report = {
  property : string;  (** the property's name *)
  verdict : verdict;
  checked_depth : int;  (** deepest bound fully checked *)
}

val check :
  ?max_depth:int ->
  ?gov:Symbad_gov.Gov.t ->
  Symbad_hdl.Netlist.t ->
  Prop.t ->
  report
(** Decide one property.  The transition query ({!Session.induction}
    at [k = 0]) runs first, charged to [gov] itself; its [Inductive]
    is [Proved { method_ = "transition"; depth = 0 }] with
    [checked_depth = 0], and anything else falls through to the bound
    loop.  [gov] governs the whole run: the loop splits its remaining
    conflict allowance deterministically across each bound window,
    exhaustion degrades to [Unknown] carrying the best bound reached,
    and when the governor grants retries an [Unknown] run is
    re-dispatched under the remaining budget — asking the transition
    query again only if the budget cut it short, never after a CTI.
    Without [gov] the run is unlimited. *)

val check_all :
  ?pool:Symbad_par.Par.pool ->
  ?max_depth:int ->
  ?gov:Symbad_gov.Gov.t ->
  Symbad_hdl.Netlist.t ->
  Prop.t list ->
  report list
(** One job per property on [pool]; [gov]'s remaining budget is split
    across the properties before the fan-out, so reports are identical
    at any pool width. *)

val all_proved : report list -> bool
(** Did every property receive a proof certificate? *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_report : Format.formatter -> report -> unit
