(* The pass framework: rule selection, governed parallel fan-out, one
   report shape for all three analyzer families, and the lint-to-proof
   escalation bridge into the model checker. *)

module Par = Symbad_par.Par
module Gov = Symbad_gov.Gov
module Obs = Symbad_obs.Obs
module Json = Symbad_obs.Json
module Mc = Symbad_mc
module D = Diagnostic

type report = {
  target : string;
  rules_run : string list;
  skipped_rules : string list;
  diagnostics : D.t list;
  obligations : (D.t * Mc.Prop.t) list;
}

(* The abstract-interpretation rules: they read one fixpoint. *)
let semantic_rule_ids =
  [ "net.x-prop"; "net.range"; "net.unreachable-state"; "net.const-reg" ]

let netlist_rule_ids =
  [
    "net.width";
    "net.undriven";
    "net.multi-driven";
    "net.comb-loop";
    "net.unused";
    "net.dead-logic";
    "net.no-reset";
  ]
  @ semantic_rule_ids

let program_rule_ids =
  [
    "cfg.never-loaded";
    "cfg.maybe-unloaded";
    "cfg.unknown-config";
    "cfg.redundant-config";
    "cfg.unreachable-config";
  ]

let sched_rule_ids = [ "sched.context-conflict"; "sched.wcrt" ]

let all_rule_ids = netlist_rule_ids @ program_rule_ids @ sched_rule_ids

(* Selection: [rules] restricts (unknown ids rejected — a CLI typo must
   not read as "clean"). *)
let select ~family ?rules () =
  match rules with
  | None -> family
  | Some ids ->
      List.iter
        (fun id ->
          if not (List.mem id all_rule_ids) then
            invalid_arg
              (Printf.sprintf "Lint: unknown rule '%s' (known: %s)" id
                 (String.concat ", " all_rule_ids)))
        ids;
      List.filter (fun id -> List.mem id ids) family

(* Governed fan-out: one rule = one pattern.  The allowance is read
   once, before the parallel map, so the set of rules run — and with it
   the report — is the same at any pool width.  [impl to_run] runs on
   the calling domain before the fan-out: it computes once the analysis
   the rules to run share (their family's fixpoint) and returns each
   rule's implementation over it, so no job recomputes the fixpoint,
   together with the proof obligations of their findings. *)
let run_rules ~target ~family ~impl ?pool ?gov ?rules () =
  let pool = Par.get pool and gov = Gov.get gov in
  let active = select ~family ?rules () in
  let affordable =
    match Gov.patterns_left gov with
    | None -> List.length active
    | Some k -> min k (List.length active)
  in
  let rec split n = function
    | rest when n = 0 -> ([], rest)
    | [] -> ([], [])
    | x :: rest ->
        let run, skip = split (n - 1) rest in
        (x :: run, skip)
  in
  let to_run, skipped = split affordable active in
  let run () =
    let rule, obligations = impl to_run in
    let diags = Par.map ~label:"lint" pool rule to_run |> List.concat in
    Gov.charge_patterns gov (List.length to_run);
    if Obs.enabled () then begin
      Obs.incr_counter ~by:(List.length to_run) "lint.rules_run";
      Obs.incr_counter ~by:(List.length diags) "lint.diagnostics";
      Obs.incr_counter
        ~by:(List.length (List.filter (fun d -> d.D.severity = D.Error) diags))
        "lint.errors"
    end;
    {
      target;
      rules_run = to_run;
      skipped_rules = skipped;
      diagnostics = D.order diags;
      obligations;
    }
  in
  if Obs.enabled () then
    Obs.span ~track:"lint" ~args:[ ("target", Json.Str target) ] "lint" run
  else run ()

let run_netlist ?pool ?gov ?rules ?properties nl =
  let ctx = Netlist_rules.context ?properties nl in
  let impl to_run =
    let absint =
      if List.exists (fun id -> List.mem id semantic_rule_ids) to_run then
        Netlist_absint.analyze nl
      else None
    in
    (* an unsound netlist has no fixpoint: the syntactic rules own it *)
    let semantic rule = match absint with Some a -> rule ctx a | None -> [] in
    (* the findings that carry obligations are built here, once, so
       each obligation sits next to the very diagnostic it discharges *)
    let findings id rule = if List.mem id to_run then semantic rule else [] in
    let const_reg = findings "net.const-reg" Netlist_absint.rule_const_reg
    and range = findings "net.range" Netlist_absint.rule_range in
    let rule = function
      | "net.width" -> Netlist_rules.rule_width ctx
      | "net.undriven" -> Netlist_rules.rule_undriven ctx
      | "net.multi-driven" -> Netlist_rules.rule_multi_driven ctx
      | "net.comb-loop" -> Netlist_rules.rule_comb_loop ctx
      | "net.unused" -> Netlist_rules.rule_unused ctx
      | "net.dead-logic" -> Netlist_rules.rule_dead_logic ctx
      | "net.no-reset" -> Netlist_rules.rule_no_reset ctx
      | "net.x-prop" -> semantic Netlist_absint.rule_x_prop
      | "net.range" -> List.map fst range
      | "net.unreachable-state" ->
          semantic Netlist_absint.rule_unreachable_state
      | "net.const-reg" -> List.map fst const_reg
      | id -> invalid_arg ("Lint: not a netlist rule: " ^ id)
    in
    (* escalation dispatches every constancy claim, then every no-wrap
       claim: [Mc.Engine.check_all] splits its budget in this order *)
    ( rule,
      List.filter_map
        (fun (d, prop) -> Option.map (fun p -> (d, p)) prop)
        (const_reg @ range) )
  in
  run_rules ~target:ctx.Netlist_rules.target ~family:netlist_rule_ids ~impl
    ?pool ?gov ?rules ()

let run_cfg ?pool ?gov ?rules ?(name = "program") ci cfg =
  let ctx = Program_rules.context ~target:name ci cfg in
  let impl _ =
    let may = Program_rules.may_states cfg in
    ( (function
      | "cfg.never-loaded" -> Program_rules.rule_never_loaded ctx may
      | "cfg.maybe-unloaded" -> Program_rules.rule_maybe_unloaded ctx may
      | "cfg.unknown-config" -> Program_rules.rule_unknown_config ctx
      | "cfg.redundant-config" -> Program_rules.rule_redundant_config ctx may
      | "cfg.unreachable-config" ->
          Program_rules.rule_unreachable_config ctx may
      | id -> invalid_arg ("Lint: not a program rule: " ^ id)),
      [] )
  in
  run_rules ~target:name ~family:program_rule_ids ~impl ?pool ?gov ?rules ()

let run_program ?pool ?gov ?rules ?name ci program =
  run_cfg ?pool ?gov ?rules ?name ci (Symbad_symbc.Cfg.build program)

let run_tenants ?pool ?gov ?rules ?deadline_ns ci tenants =
  let cfgs =
    List.map (fun (n, prog) -> (n, Symbad_symbc.Cfg.build prog)) tenants
  in
  let target = "tenants" in
  let ctx = Sched_rules.context ?deadline_ns ~target ci cfgs in
  let impl _ =
    ( (function
      | "sched.context-conflict" -> Sched_rules.rule_context_conflict ctx
      | "sched.wcrt" -> Sched_rules.rule_wcrt ctx
      | id -> invalid_arg ("Lint: not a schedule rule: " ^ id)),
      [] )
  in
  run_rules ~target ~family:sched_rule_ids ~impl ?pool ?gov ?rules ()

(* --- lint-to-proof escalation ------------------------------------------ *)

(* A warning that carries an obligation becomes a model-checker query;
   the verdict folds back into the same diagnostic.  A diagnostic is
   undischarged while the report still holds it as the lint run built
   it: escalation replaces each diagnostic it discharges, so a second
   escalation dispatches nothing twice.  The report is re-sorted with
   [D.order], so escalated reports stay byte-identical at any pool
   width (check_all splits the governor before its fan-out).
   Escalation is a lint pass, not the level-4 gate: the caller bounds
   it with [gov] (a thin slice in the flow), and an obligation the
   engine cannot settle degrades to an [Inconclusive] discharge (the
   warning keeps its severity) instead of stalling the whole report. *)
let escalate ?pool ?gov ?(max_depth = 12) nl report =
  let pending =
    List.filter
      (fun (d, _) -> List.memq d report.diagnostics)
      report.obligations
  in
  if pending = [] then report
  else begin
    let mc_reports =
      Mc.Engine.check_all ?pool ~max_depth ?gov nl (List.map snd pending)
    in
    let verdicts = List.combine (List.map fst pending) mc_reports in
    let apply (d : D.t) =
      match List.assq_opt d verdicts with
      | None -> d
      | Some (mc : Mc.Engine.report) -> (
          match mc.Mc.Engine.verdict with
          | Mc.Engine.Proved { method_; depth } ->
              {
                d with
                D.severity = D.Info;
                D.discharged =
                  Some
                    {
                      D.status = D.Proved;
                      detail = Printf.sprintf "%s, depth %d" method_ depth;
                      counterexample = None;
                    };
              }
          | Mc.Engine.Falsified tr ->
              {
                d with
                D.severity = D.Error;
                D.discharged =
                  Some
                    {
                      D.status = D.Disproved;
                      detail =
                        Printf.sprintf "counterexample, %d frames"
                          (Mc.Trace.length tr);
                      counterexample = Some (Fmt.str "%a" Mc.Trace.pp tr);
                    };
              }
          | Mc.Engine.Unknown { reason } ->
              {
                d with
                D.discharged =
                  Some
                    {
                      D.status = D.Inconclusive;
                      detail = reason;
                      counterexample = None;
                    };
              })
    in
    { report with diagnostics = D.order (List.map apply report.diagnostics) }
  end

let merge ~target reports =
  let union ls =
    List.fold_left
      (fun acc l ->
        List.fold_left
          (fun acc x -> if List.mem x acc then acc else acc @ [ x ])
          acc l)
      [] ls
  in
  {
    target;
    rules_run = union (List.map (fun r -> r.rules_run) reports);
    skipped_rules = union (List.map (fun r -> r.skipped_rules) reports);
    diagnostics = D.order (List.concat_map (fun r -> r.diagnostics) reports);
    obligations = List.concat_map (fun r -> r.obligations) reports;
  }

let count_at_least sev r =
  List.length
    (List.filter
       (fun d -> D.severity_rank d.D.severity <= D.severity_rank sev)
       r.diagnostics)

let errors r = count_at_least D.Error r
let warnings r = count_at_least D.Warning r - errors r

let to_json r =
  Json.Obj
    [
      ("schema_version", Json.Int D.schema_version);
      ("lint", Json.Str r.target);
      ("rules_run", Json.List (List.map (fun s -> Json.Str s) r.rules_run));
      ("skipped", Json.List (List.map (fun s -> Json.Str s) r.skipped_rules));
      ("errors", Json.Int (errors r));
      ("warnings", Json.Int (warnings r));
      ("diagnostics", Json.List (List.map D.to_json r.diagnostics));
    ]

let to_markdown r =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "## Lint: %s\n\n" r.target);
  Buffer.add_string b
    (Printf.sprintf "%d rules run, %d errors, %d warnings%s\n\n"
       (List.length r.rules_run) (errors r) (warnings r)
       (if r.skipped_rules = [] then ""
        else ", skipped (governor): " ^ String.concat " " r.skipped_rules));
  if r.diagnostics <> [] then begin
    Buffer.add_string b "| severity | rule | location | message | hint |\n";
    Buffer.add_string b "|---|---|---|---|---|\n";
    List.iter
      (fun (d : D.t) ->
        Buffer.add_string b
          (Printf.sprintf "| %s | %s | %s | %s | %s |\n"
             (D.severity_label d.D.severity)
             d.D.rule d.D.location d.D.message
             (Option.value ~default:"" d.D.hint)))
      r.diagnostics
  end;
  Buffer.contents b

let pp fmt r =
  Fmt.pf fmt "lint %s: %d rules, %d errors, %d warnings@." r.target
    (List.length r.rules_run) (errors r) (warnings r);
  List.iter
    (fun (d : D.t) ->
      Fmt.pf fmt "  %a@." D.pp d;
      match d.D.discharged with
      | Some { D.counterexample = Some cex; _ } ->
          String.split_on_char '\n' (String.trim cex)
          |> List.iter (fun line -> Fmt.pf fmt "    %s@." line)
      | _ -> ())
    r.diagnostics;
  if r.skipped_rules <> [] then
    Fmt.pf fmt "  skipped (governor): %s@."
      (String.concat " " r.skipped_rules)
