(** Explicit-state reachability for small netlists.

    A decision procedure whenever the state and input spaces fit in
    memory; serves as the reference oracle for the SAT-based engines and
    answers reachability queries directly. *)

type result =
  | Proved of { states : int }  (** with the reachable-state count *)
  | Falsified of Trace.t  (** BFS gives a shortest counterexample *)
  | Too_large
  | Interrupted  (** the governor ran out before the search ended *)

val check : ?gov:Symbad_gov.Gov.t -> Symbad_hdl.Netlist.t -> Prop.t -> result
(** Tractable up to [2{^20}] reachable states, 12 input bits and
    [2{^22}] (state, input-valuation) transition evaluations: the last
    cap is the product of the state and input spaces, since a design
    within both individual caps can still mean billions of expansions.
    Exceeding any cap yields [Too_large].  [gov] (default unlimited) is
    polled before each state is expanded and charged one pattern per
    expanded state; once it is exhausted the search stops with
    [Interrupted]. *)

val reachable_states : Symbad_hdl.Netlist.t -> int option
(** Reachable-state count, if tractable. *)
