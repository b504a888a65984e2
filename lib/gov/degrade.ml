(* Degradation vocabulary: exhaustion reasons and the detail line an
   inconclusive verdict carries.  The strings are deterministic on
   purpose — degraded reports must still compare byte-identically across
   runs and pool widths, so no timestamps or host figures here. *)

type reason = Deadline | Conflicts | Patterns

let reason_string = function
  | Deadline -> "deadline exhausted"
  | Conflicts -> "conflict budget exhausted"
  | Patterns -> "pattern budget exhausted"

type partial = {
  units_done : int;
  units_total : int option;
  what : string;
}

let detail ~reason p =
  match p.units_total with
  | Some total ->
      Printf.sprintf "governor: %s; %d/%d %s" (reason_string reason)
        p.units_done total p.what
  | None ->
      Printf.sprintf "governor: %s; %d %s" (reason_string reason) p.units_done
        p.what
