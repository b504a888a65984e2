(* The uniform verification-result contract (OS-VVM style: heterogeneous
   checks, one reporting shape).  Producers keep their rich native
   reports; these adapters compress each into the four-outcome verdict
   the flow aggregates and serialises. *)

module Json = Symbad_obs.Json

type outcome =
  | Proved
  | Disproved of string
  | Coverage of { hit : int; total : int }
  | Inconclusive of string

type t = {
  name : string;
  outcome : outcome;
  passed : bool;
  host_seconds : float;
  detail : string;
  cached : bool;
}

let default_passed = function
  | Proved -> true
  | Disproved _ | Inconclusive _ -> false
  | Coverage { hit; total } -> hit = total

let make ?passed ?(host_seconds = 0.) ?(detail = "") ~name outcome =
  {
    name;
    outcome;
    passed = (match passed with Some p -> p | None -> default_passed outcome);
    host_seconds;
    detail;
    cached = false;
  }

let with_cached t = { t with cached = true; host_seconds = 0. }

(* --- adapters --------------------------------------------------------- *)

let of_pcc (r : Symbad_pcc.Pcc.report) =
  let threshold = 0.75 (* the flow's completeness gate *) in
  let name = Printf.sprintf "PCC completeness %s" r.Symbad_pcc.Pcc.design in
  let unresolved =
    List.length
      (List.filter
         (fun (fr : Symbad_pcc.Pcc.fault_report) ->
           fr.Symbad_pcc.Pcc.status = Symbad_pcc.Pcc.Unresolved)
         r.Symbad_pcc.Pcc.faults)
  in
  let total_faults = List.length r.Symbad_pcc.Pcc.faults in
  let covered = r.Symbad_pcc.Pcc.covered in
  if unresolved = 0 then
    make ~name
      ~passed:(r.Symbad_pcc.Pcc.coverage >= threshold)
      ~detail:
        (Printf.sprintf "%.0f%% of %d detectable faults"
           (100. *. r.Symbad_pcc.Pcc.coverage)
           r.Symbad_pcc.Pcc.detectable)
      (Coverage { hit = covered; total = r.Symbad_pcc.Pcc.detectable })
  else
    (* an unresolved fault may be detectable and covered, detectable and
       uncovered, or undetectable: bound the coverage by counting every
       one as a detectable fault, uncovered (worst) or covered (best) *)
    let total = r.Symbad_pcc.Pcc.detectable + unresolved in
    let ratio hit = float_of_int hit /. float_of_int total in
    let worst = ratio covered and best = ratio (covered + unresolved) in
    let bounded ~passed ~bound ratio =
      make ~name ~passed
        ~detail:
          (Printf.sprintf "%s %.0f%% of %d detectable + %d unresolved faults"
             bound (100. *. ratio) r.Symbad_pcc.Pcc.detectable unresolved)
        (Coverage { hit = covered; total })
    in
    if worst >= threshold then bounded ~passed:true ~bound:"at least" worst
    else if best < threshold then bounded ~passed:false ~bound:"at most" best
    else
      (* the gate lies between the bounds: only a larger budget can
         decide it, so report what WAS classified *)
      make ~name
        ~detail:
          (Printf.sprintf "resource budget exhausted; %d/%d faults classified"
             (total_faults - unresolved) total_faults)
        (Inconclusive "resource budget exhausted")

let of_lpv_deadlock ?host_seconds (v : Symbad_lpv.Deadlock.verdict) =
  let name = "LPV deadlock freeness" in
  match v with
  | Symbad_lpv.Deadlock.Deadlock_free { min_cycle_tokens } ->
      make ?host_seconds ~name
        ~detail:(Fmt.str "min cycle tokens %a" Symbad_lpv.Rat.pp min_cycle_tokens)
        Proved
  | Symbad_lpv.Deadlock.Potential_deadlock { witness } ->
      make ?host_seconds ~name (Disproved (String.concat "," witness))
  | Symbad_lpv.Deadlock.Not_analyzable why ->
      make ?host_seconds ~name (Inconclusive why)

let of_lpv_timing ~deadline_ns ~met (v : Symbad_lpv.Timing.verdict) =
  let detail =
    Fmt.str "%a vs deadline %dns" Symbad_lpv.Timing.pp_verdict v deadline_ns
  in
  make ~name:"LPV timing deadline" ~detail
    (match v with
    | Symbad_lpv.Timing.Not_analyzable why -> Inconclusive why
    | Symbad_lpv.Timing.Period _ | Symbad_lpv.Timing.Unschedulable _ ->
        if met then Proved else Disproved detail)

let of_symbc ?host_seconds (v : Symbad_symbc.Check.verdict) =
  let name = "SymbC reconfiguration consistency" in
  match v with
  | Symbad_symbc.Check.Consistent { calls_checked; _ } ->
      make ?host_seconds ~name
        ~detail:(Printf.sprintf "certificate, %d call sites" calls_checked)
        Proved
  | Symbad_symbc.Check.Inconsistent cex ->
      make ?host_seconds ~name
        (Disproved (cex.Symbad_symbc.Check.failing_call ^ " unavailable"))

let of_lint ?host_seconds (r : Symbad_lint.Lint.report) =
  let module Lint = Symbad_lint.Lint in
  let module D = Symbad_lint.Diagnostic in
  let name = "lint " ^ r.Lint.target in
  let errors = Lint.errors r and warnings = Lint.warnings r in
  if errors > 0 then
    let first =
      List.find (fun d -> d.D.severity = D.Error) r.Lint.diagnostics
    in
    make ?host_seconds ~name
      ~detail:
        (Printf.sprintf "%d errors, %d warnings over %d rules" errors warnings
           (List.length r.Lint.rules_run))
      (Disproved
         (Printf.sprintf "%s: %s: %s" first.D.rule first.D.location
            first.D.message))
  else if r.Lint.skipped_rules <> [] then
    make ?host_seconds ~name
      ~detail:
        (Printf.sprintf "%d/%d rules afforded"
           (List.length r.Lint.rules_run)
           (List.length r.Lint.rules_run + List.length r.Lint.skipped_rules))
      (Inconclusive
         (Printf.sprintf "governor: rules skipped: %s"
            (String.concat " " r.Lint.skipped_rules)))
  else
    make ?host_seconds ~name
      ~detail:
        (Printf.sprintf "%d rules, %d warnings"
           (List.length r.Lint.rules_run) warnings)
      Proved

(* --- rendering -------------------------------------------------------- *)

let outcome_label = function
  | Proved -> "proved"
  | Disproved _ -> "disproved"
  | Coverage _ -> "coverage"
  | Inconclusive _ -> "inconclusive"

let to_json ?(timings = true) t =
  let base =
    [
      ("check", Json.Str t.name);
      ("passed", Json.Bool t.passed);
      ("detail", Json.Str t.detail);
      ("outcome", Json.Str (outcome_label t.outcome));
      ("host_seconds", Json.Float (if timings then t.host_seconds else 0.));
    ]
  in
  let extra =
    match t.outcome with
    | Coverage { hit; total } ->
        [ ("hit", Json.Int hit); ("total", Json.Int total) ]
    | Disproved w -> [ ("counterexample", Json.Str w) ]
    | Inconclusive reason -> [ ("reason", Json.Str reason) ]
    | Proved -> []
  in
  (* only hits carry the marker, so uncached documents are byte-for-byte
     what they were before the cache existed *)
  let cached = if t.cached then [ ("cached", Json.Bool true) ] else [] in
  Json.Obj (base @ extra @ cached)

(* Parse a [to_json] document back; [None] on any missing or ill-typed
   field, and on a row whose [passed] contradicts its outcome (a proof
   that failed, a disproof or an inconclusive row that passed; a
   coverage row may go either way, its gate being a threshold).  This
   is what lets the verdict cache replay stored rows: a rejected row
   makes the entry a miss. *)
let of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  let int k =
    Option.bind (Json.member k j) Json.to_number |> Option.map int_of_float
  in
  let bool k =
    match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None
  in
  match (str "check", bool "passed", str "detail", str "outcome") with
  | Some name, Some passed, Some detail, Some label ->
      let outcome =
        match label with
        | "proved" -> Some Proved
        | "disproved" ->
            Some (Disproved (Option.value ~default:"" (str "counterexample")))
        | "inconclusive" ->
            Some (Inconclusive (Option.value ~default:"" (str "reason")))
        | "coverage" -> (
            match (int "hit", int "total") with
            | Some hit, Some total -> Some (Coverage { hit; total })
            | _ -> None)
        | _ -> None
      in
      let consistent = function
        | Proved -> passed
        | Disproved _ | Inconclusive _ -> not passed
        | Coverage _ -> true
      in
      Option.bind outcome (fun outcome ->
          if consistent outcome then
            Some
              {
                name;
                outcome;
                passed;
                host_seconds = 0.;
                detail;
                cached = Option.value ~default:false (bool "cached");
              }
          else None)
  | _ -> None

(* The markdown verdict table of the flow and [symbad verify] reports. *)
let markdown_table vs =
  String.concat ""
    ("| check | verdict | detail |\n|---|---|---|\n"
    :: List.map
         (fun t ->
           Printf.sprintf "| %s | %s | %s |\n" t.name
             (if t.passed then "PASS" else "FAIL")
             t.detail)
         vs)

let pp fmt t =
  Fmt.pf fmt "[%s] %-38s %s%s"
    (if t.passed then "PASS" else "FAIL")
    t.name
    (if String.equal t.detail "" then
       match t.outcome with
       | Proved -> "proved"
       | Disproved w -> w
       | Coverage { hit; total } -> Printf.sprintf "%d/%d" hit total
       | Inconclusive reason -> reason
     else t.detail)
    (if t.cached then " (cached)" else "")
