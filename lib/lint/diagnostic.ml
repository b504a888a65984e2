(* The shared diagnostic currency of the lint passes. *)

module Json = Symbad_obs.Json

(* Bump when the JSON shape of a diagnostic or a lint report changes
   incompatibly.  Version 2: added [schema_version] itself and the
   [discharged] escalation annotation.  Version 3: the report dropped
   its list of rule ids disabled by name, which no caller set, so it
   was always empty. *)
let schema_version = 3

type severity = Error | Warning | Info

type discharge_status = Proved | Disproved | Inconclusive

type discharge = {
  status : discharge_status;
  detail : string;
  counterexample : string option;
}

type t = {
  rule : string;
  severity : severity;
  target : string;
  location : string;
  message : string;
  hint : string option;
  discharged : discharge option;
}

let make ?hint ~rule ~severity ~target ~location message =
  { rule; severity; target; location; message; hint; discharged = None }

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let discharge_label = function
  | Proved -> "proved"
  | Disproved -> "disproved"
  | Inconclusive -> "inconclusive"

let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.rule b.rule in
    if c <> 0 then c
    else
      let c = String.compare a.location b.location in
      if c <> 0 then c else String.compare a.message b.message

let order ds = List.stable_sort compare ds

let discharge_to_json g =
  Json.Obj
    ([
       ("status", Json.Str (discharge_label g.status));
       ("detail", Json.Str g.detail);
     ]
    @
    match g.counterexample with
    | None -> []
    | Some cex -> [ ("counterexample", Json.Str cex) ])

let to_json d =
  Json.Obj
    ([
       ("schema_version", Json.Int schema_version);
       ("rule", Json.Str d.rule);
       ("severity", Json.Str (severity_label d.severity));
       ("target", Json.Str d.target);
       ("location", Json.Str d.location);
       ("message", Json.Str d.message);
     ]
    @ (match d.hint with None -> [] | Some h -> [ ("hint", Json.Str h) ])
    @
    match d.discharged with
    | None -> []
    | Some g -> [ ("discharged", discharge_to_json g) ])

let pp fmt d =
  Fmt.pf fmt "%s: %s: %s: %s: %s"
    (severity_label d.severity)
    d.rule d.target d.location d.message;
  (match d.discharged with
  | None -> ()
  | Some g -> Fmt.pf fmt " [discharged: %s, %s]" (discharge_label g.status) g.detail);
  match d.hint with None -> () | Some h -> Fmt.pf fmt " (hint: %s)" h
