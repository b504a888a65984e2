(* Degradation vocabulary: the exhaustion reasons.  The strings are
   deterministic on purpose — degraded reports must still compare
   byte-identically across runs and pool widths, so no timestamps or
   host figures here. *)

type reason = Deadline | Conflicts | Patterns

let reason_string = function
  | Deadline -> "deadline exhausted"
  | Conflicts -> "conflict budget exhausted"
  | Patterns -> "pattern budget exhausted"
