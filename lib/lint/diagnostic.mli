(** The shared diagnostic currency of the lint passes.

    Every rule reports findings in this one shape so reports, verdicts
    and artefacts render uniformly regardless of which analyzer family
    (netlist, reconfiguration or schedule) produced them. *)

val schema_version : int
(** Version of the JSON rendering; every serialized diagnostic carries
    it as [schema_version].  Bumped on incompatible shape changes. *)

type severity = Error | Warning | Info

(** Outcome of a lint-to-proof escalation ({!Lint.escalate}). *)
type discharge_status =
  | Proved  (** the obligation holds: the warning was a false positive *)
  | Disproved  (** refuted with a counterexample: the warning is real *)
  | Inconclusive  (** the engines ran out of budget or depth *)

type discharge = {
  status : discharge_status;
  detail : string;  (** how the verdict was reached, e.g. ["k-induction, depth 3"] *)
  counterexample : string option;  (** rendered trace when disproved *)
}

type t = {
  rule : string;  (** stable rule id, e.g. ["net.comb-loop"] *)
  severity : severity;
  target : string;  (** netlist or program the finding is about *)
  location : string;  (** where inside the target, e.g. ["output ack"] *)
  message : string;
  hint : string option;  (** how to fix it, when the rule knows *)
  discharged : discharge option;  (** escalation verdict, when escalated *)
}

val make :
  ?hint:string ->
  rule:string ->
  severity:severity ->
  target:string ->
  location:string ->
  string ->
  t
(** A finding not yet escalated ([discharged = None]). *)

val severity_label : severity -> string

val severity_rank : severity -> int
(** [Error] ranks 0, [Warning] 1, [Info] 2 — lower is graver.  This is
    the one severity ordering; every renderer (lint, report, SARIF)
    sorts by it through {!order}. *)

val discharge_label : discharge_status -> string

val order : t list -> t list
(** The canonical report order: stable sort by severity rank, then rule
    id, location and message.  Centralised so [symbad lint] and
    [symbad report] render identically. *)

val to_json : t -> Symbad_obs.Json.t
val pp : Format.formatter -> t -> unit
