(** The graceful-degradation policy: what an engine reports when its
    budget runs out.

    Exhaustion never raises and never hangs — the engine stops at the
    next step boundary and reports the partial result it achieved (the
    best bound reached in BMC, the coverage attained in ATPG, the faults
    classified in PCC) as an inconclusive outcome.  This module is the
    vocabulary of that contract: the exhaustion reasons. *)

type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | Conflicts  (** the SAT-conflict allowance is spent *)
  | Patterns  (** the test-pattern / simulation-unit allowance is spent *)

val reason_string : reason -> string
(** ["deadline exhausted"], ["conflict budget exhausted"] or
    ["pattern budget exhausted"] — stable strings, safe to embed in
    byte-compared reports (no timestamps). *)
