(* The governed engine drivers that produce a verdict directly.

   One call shape,

     ?gov ?pool ~seed () -> Verdict.t

   [gov] is the resource governor (omitted = unlimited), [pool] the
   worker-domain fan-out (omitted = sequential), [seed] drives the
   stochastic search.  Verdicts are identical at any pool width. *)

module Gov = Symbad_gov.Gov
module Budget = Symbad_gov.Budget
module Degrade = Symbad_gov.Degrade

let timed f =
  let t0 = Sys.time () in
  let v = f () in
  (v, Sys.time () -. t0)

(* Laerte++ on the behavioural hot spots: genetic engine, report the
   worst coverage across models.  Model runs fan out on the pool.
   The governor bounds the generation loops; an exhausted budget
   degrades to Inconclusive carrying the coverage reached so far, and
   granted retries re-dispatch re-seeded over a share of the remaining
   budget (the portfolio retry). *)
let atpg ?gov ?pool ~seed () =
  let pool = Symbad_par.Par.get pool in
  let gov = Gov.get gov in
  let retries = (Gov.budget gov).Budget.retries in
  let attempt_once ~attempt =
    (* with retries granted, each attempt gets an even share of what is
       left, so the last attempt still has budget to spend *)
    let g =
      if retries = 0 then gov
      else
        Gov.slice
          ~label:(Printf.sprintf "atpg.try%d" attempt)
          ~fraction:(1. /. float_of_int (retries + 1 - attempt))
          gov
    in
    let seed =
      if attempt = 0 then seed else Symbad_par.Par.split_seed ~seed attempt
    in
    let evals, host_seconds =
      timed (fun () ->
          List.map
            (fun m ->
              let params =
                { Symbad_atpg.Genetic_engine.default_params with
                  Symbad_atpg.Genetic_engine.seed }
              in
              let tests =
                Symbad_atpg.Genetic_engine.generate ~pool ~gov:g ~params m
              in
              Symbad_atpg.Testbench.evaluate ~pool ~engine:"genetic" m tests)
            (Symbad_atpg.Models.all ()))
    in
    let worst =
      List.fold_left
        (fun acc e -> min acc e.Symbad_atpg.Testbench.coverage.Symbad_atpg.Coverage.total)
        1. evals
    in
    let hit, total =
      List.fold_left
        (fun (h, t) (e : Symbad_atpg.Testbench.evaluation) ->
          ( h + e.Symbad_atpg.Testbench.coverage.Symbad_atpg.Coverage.hit_points,
            t + e.Symbad_atpg.Testbench.coverage.Symbad_atpg.Coverage.total_points ))
        (0, 0) evals
    in
    match Gov.exhaustion g with
    | Some reason when worst <= 0.85 ->
        (* out of budget short of the gate: report what was covered *)
        Gov.note_degraded g ~what:"atpg" reason;
        let why = Degrade.reason_string reason in
        Verdict.make ~name:"ATPG coverage (Laerte++)" ~host_seconds
          ~detail:
            (Printf.sprintf "governor: %s; %d/%d coverage points hit" why hit
               total)
          (Verdict.Inconclusive why)
    | Some _ | None ->
        Verdict.make ~name:"ATPG coverage (Laerte++)" ~host_seconds
          ~passed:(worst > 0.85)
          ~detail:
            (String.concat "; "
               (List.map
                  (fun e ->
                    Printf.sprintf "%s %.0f%%" e.Symbad_atpg.Testbench.model
                      (100.
                     *. e.Symbad_atpg.Testbench.coverage.Symbad_atpg.Coverage.total))
                  evals))
          (Verdict.Coverage { hit; total })
  in
  Gov.with_retry ~label:"atpg" gov
    ~inconclusive:(fun v ->
      match v.Verdict.outcome with
      | Verdict.Inconclusive _ -> true
      | Verdict.Proved | Verdict.Disproved _ | Verdict.Coverage _ -> false)
    (fun ~attempt -> attempt_once ~attempt)
