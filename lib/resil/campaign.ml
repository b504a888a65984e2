(* The fault-injection campaign engine.

   A campaign runs the level-3 face-recognition platform once fault-free
   (the baseline), then re-runs it once per planned fault with the
   corresponding injection installed, and grades every trial on
   OSVVM-style questions: did the fault land (injected), did a detection
   mechanism observe it (detected), did a recovery mechanism complete
   (recovered), was the fault masked — result still correct at zero
   recovery latency (masked) — and did the pipeline still elect the
   baseline WINNER (correct)?  Trial 0 is always the uninjected control:
   it must be byte-identical to the baseline, the scoreboard that proves
   the injection machinery itself perturbs nothing when disarmed.

   Operating modes: [Scrub] is the detect-and-repair platform of PR 4
   (CRC-checked downloads, readback scrubbing, bounded retry); [Tmr]
   is the masked-fault mode — TMR contexts voted at every readout plus
   SEC-DED bus ECC — which pays area and bandwidth up front to make
   recovery latency vanish.

   Determinism contract: the plan is drawn from the seed before the
   fan-out, every trial simulation is deterministic, and the governor's
   allowance is read once before the fan-out — so the report is
   byte-identical at any pool width.  Exhaustion skips trials and the
   verdict degrades to inconclusive; an undetected or uncorrected fault
   is a disproof.  Neither is ever an optimistic pass. *)

module Par = Symbad_par.Par
module Gov = Symbad_gov.Gov
module Degrade = Symbad_gov.Degrade
module Rng = Symbad_image.Rng
module Obs = Symbad_obs.Obs
module Json = Symbad_obs.Json
module Trace = Symbad_sim.Trace
module Kernel = Symbad_sim.Kernel
module Process = Symbad_sim.Process
module Time = Symbad_sim.Time
module Transaction = Symbad_tlm.Transaction
module Bus = Symbad_tlm.Bus
module Fpga = Symbad_fpga.Fpga
module Level3 = Symbad_core.Level3
module Face_app = Symbad_core.Face_app
module Verdict = Symbad_core.Verdict

type mode = Scrub | Tmr

let mode_to_string = function Scrub -> "scrub" | Tmr -> "tmr"

type outcome = {
  trial : int;
  kind : string;  (* "control" or a Fault.kind name *)
  injection : string;
  injected : bool;
  detected : bool;
  recovered : bool;
  masked : bool;
  correct : bool;
  skipped : bool;
  recovery_ns : int;
  detail : string;
}

type kind_row = {
  row_kind : string;
  row_trials : int;
  row_injected : int;
  row_detected : int;
  row_recovered : int;
  row_masked : int;
  row_correct : int;
}

type report = {
  seed : int;
  mode : string;
  trials_per_kind : int;
  kind_names : string list;
  baseline_latency_ns : int;
  fabric_area : int;  (* resource areas consumed, all copies *)
  outcomes : outcome list;
  per_kind : kind_row list;
  control_ok : bool;
  skipped : int;
  masked_trials : int;
  histogram : (string * int) list;
  passed : bool;
}

let trial_passed (o : outcome) =
  (not o.skipped) && o.correct
  && (String.equal o.kind "control"
     || (o.injected && o.detected && o.recovered))

(* The garbling mask used for downloads: two flipped bits, guaranteed to
   move the CRC. *)
let seu_mask = 0x0008_0004

let winner_stream trace =
  Trace.stream_of trace ~source:"WINNER" ~label:"result"

(* Service completion: the instant the pipeline produced its last data
   token.  Recovery latency is graded against this, not against the
   kernel's final event time, so saboteur bookkeeping wake-ups never
   masquerade as recovery cost. *)
let service_ns (r : Level3.result) =
  List.fold_left
    (fun acc (e : Trace.entry) -> max acc (Time.to_ns e.Trace.time))
    0
    (Trace.entries r.Level3.trace)

let total_drops (r : Level3.result) =
  List.fold_left
    (fun acc (_, (o : Symbad_sim.Fifo.occupancy)) ->
      acc + o.Symbad_sim.Fifo.drops)
    0 r.Level3.channel_occupancy

(* Grade [trial]'s completed run against the baseline.  [masked] is the
   strongest grade: the mechanism absorbed the fault without a retry
   round-trip or a repair pause — the result is correct and the service
   completed at exactly the baseline instant. *)
let grade ~baseline ~base_winner (trial : outcome) inj (r : Level3.result) =
  let fs = r.Level3.fpga_stats in
  let bs = r.Level3.bus_report in
  let correct = winner_stream r.Level3.trace = base_winner in
  let recovery_ns = max 0 (service_ns r - service_ns baseline) in
  let injected, detected, recovered, masked, detail =
    match inj with
    | Fault.Seu _ ->
        let hit = fs.Fpga.crc_mismatches > 0 in
        ( hit,
          hit,
          hit && fs.Fpga.failed_downloads = 0,
          false,
          Printf.sprintf "crc_mismatches=%d retried=%d failed=%d"
            fs.Fpga.crc_mismatches fs.Fpga.retried_downloads
            fs.Fpga.failed_downloads )
    | Fault.Upset _ ->
        let scrubbed = fs.Fpga.scrub_reloads > 0 in
        let voted = fs.Fpga.voter_disagreements > 0 in
        let repaired = scrubbed || fs.Fpga.targeted_repairs > 0 in
        ( true,
          scrubbed || voted,
          repaired,
          voted && fs.Fpga.targeted_repairs > 0 && correct && recovery_ns = 0,
          Printf.sprintf "scrubs=%d reloads=%d disagreements=%d targeted=%d"
            fs.Fpga.scrubs fs.Fpga.scrub_reloads fs.Fpga.voter_disagreements
            fs.Fpga.targeted_repairs )
    | Fault.Bus _ ->
        let seen = bs.Bus.error_responses + bs.Bus.retry_responses in
        ( seen > 0,
          seen > 0,
          seen > 0 && bs.Bus.failed_transfers = 0,
          false,
          Printf.sprintf "errors=%d retries=%d failed=%d"
            bs.Bus.error_responses bs.Bus.retry_responses
            bs.Bus.failed_transfers )
    | Fault.Flip { bits; _ } ->
        (* on an ECC bus a single flip is corrected in place and a
           double detected then retried; on a plain bus both surface as
           ERROR responses and ride the retry *)
        let seen =
          bs.Bus.ecc_corrected + bs.Bus.ecc_double_errors
          + bs.Bus.error_responses
        in
        ( seen > 0,
          seen > 0,
          seen > 0 && bs.Bus.failed_transfers = 0,
          bits = 1 && bs.Bus.ecc_corrected > 0
          && bs.Bus.failed_transfers = 0 && correct && recovery_ns = 0,
          Printf.sprintf "ecc_corrected=%d ecc_double=%d errors=%d failed=%d"
            bs.Bus.ecc_corrected bs.Bus.ecc_double_errors
            bs.Bus.error_responses bs.Bus.failed_transfers )
    | Fault.Loss _ ->
        let drops = total_drops r in
        (* the retransmit is the only way a dropped token's stream still
           completes, so recovery is graded by completed delivery *)
        ( drops > 0,
          drops > 0,
          drops > 0 && correct,
          false,
          Printf.sprintf "drops=%d" drops )
    | Fault.Stuck _ ->
        ( true,
          fs.Fpga.watchdog_fires > 0,
          r.Level3.sw_fallbacks > 0,
          false,
          Printf.sprintf "watchdog=%d fallbacks=%d" fs.Fpga.watchdog_fires
            r.Level3.sw_fallbacks )
  in
  { trial with
    injected; detected; recovered; masked; correct; recovery_ns; detail }

(* The uninjected control: every observable of the platform run must be
   byte-identical to the baseline — the scoreboard for the injection
   machinery itself. *)
let grade_control ~baseline (r : Level3.result) =
  let mismatches =
    List.filter_map
      (fun (name, same) -> if same then None else Some name)
      [
        ( "trace",
          Trace.equal_data ~reference:baseline.Level3.trace
            ~actual:r.Level3.trace );
        ("latency", r.Level3.latency_ns = baseline.Level3.latency_ns);
        ("bus", r.Level3.bus_report = baseline.Level3.bus_report);
        ("fpga", r.Level3.fpga_stats = baseline.Level3.fpga_stats);
        ("cpu", r.Level3.cpu_stats = baseline.Level3.cpu_stats);
        ("fallbacks", r.Level3.sw_fallbacks = baseline.Level3.sw_fallbacks);
        ( "channels",
          r.Level3.channel_occupancy = baseline.Level3.channel_occupancy );
      ]
  in
  ( mismatches = [],
    if mismatches = [] then "identical to baseline"
    else "differs from baseline: " ^ String.concat "," mismatches )

(* A planned trial before it is graded: nothing observed yet. *)
let ungraded (index, inj_opt) =
  let kind, injection =
    match inj_opt with
    | None -> ("control", "none")
    | Some inj ->
        ( Fault.kind_to_string (Fault.kind_of_injection inj),
          Fault.injection_to_string inj )
  in
  {
    trial = index;
    kind;
    injection;
    injected = false;
    detected = false;
    recovered = false;
    masked = false;
    correct = false;
    skipped = false;
    recovery_ns = 0;
    detail = "";
  }

let crashed e = "crashed: " ^ Printexc.to_string e

let run_one ~graph ~mapping ~baseline ~base_winner ~base_config
    ~scrub_period_ns ((_, inj_opt) as planned) =
  let trial = ungraded planned in
  match inj_opt with
  | None -> (
      match Level3.run ~config:base_config graph mapping with
      | r ->
          let correct, detail = grade_control ~baseline r in
          { trial with correct; detail }
      | exception e -> { trial with detail = crashed e })
  | Some inj -> (
      let config =
        match inj with
        | Fault.Upset _ when not base_config.Level3.masked ->
            (* scrub mode detects upsets by periodic readback; in masked
               mode the voter observes them at readout instead *)
            { base_config with Level3.scrub_period_ns }
        | _ -> base_config
      in
      let channel_loss =
        match inj with
        | Fault.Loss { channel; drop_index } ->
            [ (channel, fun i -> i = drop_index) ]
        | _ -> []
      in
      let tap ~bus ~fpga ~kernel =
        match inj with
        | Fault.Seu { word; attempts } ->
            Fpga.inject_download_fault fpga
              (Some
                 (fun ~attempt ~word:w ->
                   if attempt < attempts && w = word then seu_mask else 0))
        | Fault.Upset { at_permille; copy } ->
            (* Wait until the planned instant, then keep one upset armed
               until a repair observes it.  An upset on an empty fabric
               hits nothing, and one that lands in configuration memory
               already being rewritten by an in-flight reconfiguration is
               erased before anyone could read it — in both cases the
               saboteur re-injects, so every trial tests a fault the
               detection machinery really had to catch.  Repairs are
               watched through scrub reloads plus targeted voter repairs,
               so the same saboteur serves both operating modes.  The
               poll count is bounded so a campaign over an all-software
               mapping cannot hang the simulation. *)
            let t_ns =
              baseline.Level3.latency_ns * at_permille / 1000
            in
            let poll_ns = 2_000 and max_polls = 2_000 in
            Kernel.spawn kernel (fun () ->
                Process.wait (Time.ns t_ns);
                let repairs () =
                  let s = Fpga.stats fpga in
                  s.Fpga.scrub_reloads + s.Fpga.targeted_repairs
                in
                let rec arm polls =
                  if polls < max_polls then
                    if Fpga.upset_loaded ~copy fpga then
                      watch polls (repairs ())
                    else begin
                      Process.wait (Time.ns poll_ns);
                      arm (polls + 1)
                    end
                and watch polls repairs0 =
                  if polls < max_polls then begin
                    Process.wait (Time.ns poll_ns);
                    if repairs () > repairs0 then ()
                    else if Fpga.loaded_corrupted fpga then
                      watch (polls + 1) repairs0
                    else arm (polls + 1)
                  end
                in
                arm 0)
        | Fault.Bus { txn_index; error; count } ->
            let counter = ref (-1) in
            Bus.inject_faults bus
              (Some
                 (fun txn ~attempt ->
                   match txn.Transaction.kind with
                   | Transaction.Write ->
                       if attempt = 0 then incr counter;
                       if !counter = txn_index && attempt < count then
                         if error then Bus.Error else Bus.Retry
                       else Bus.Okay
                   | _ -> Bus.Okay))
        | Fault.Flip { txn_index; bits; count } ->
            let counter = ref (-1) in
            Bus.inject_corruption bus
              (Some
                 (fun txn ~attempt ->
                   match txn.Transaction.kind with
                   | Transaction.Write ->
                       if attempt = 0 then incr counter;
                       if !counter = txn_index && attempt < count then bits
                       else 0
                   | _ -> 0))
        | Fault.Loss _ -> ()
        | Fault.Stuck { resource } -> Fpga.set_stuck fpga resource
      in
      match Level3.run ~config ~channel_loss ~tap graph mapping with
      | r -> grade ~baseline ~base_winner trial inj r
      | exception e ->
          (* a crash is a detected, unrecovered fault — never a pass *)
          { trial with injected = true; detected = true; detail = crashed e })

let skipped_outcome planned =
  {
    (ungraded planned) with
    skipped = true;
    detail = "skipped: resource budget exhausted";
  }

(* Log-2 recovery-latency histogram, from simulated time — deterministic
   by construction. *)
let histogram_of outcomes =
  let bucket ns =
    if ns <= 0 then "0"
    else
      let e = ref 0 in
      while ns lsr !e > 1 do
        incr e
      done;
      Printf.sprintf "2^%d" !e
  in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (o : outcome) ->
      if not o.skipped then
        let b = bucket o.recovery_ns in
        Hashtbl.replace tbl b (1 + Option.value ~default:0 (Hashtbl.find_opt tbl b)))
    outcomes;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) ->
         compare (String.length a, a) (String.length b, b))

let per_kind_rows kind_names outcomes =
  List.map
    (fun kname ->
      let of_kind =
        List.filter (fun (o : outcome) -> String.equal o.kind kname) outcomes
      in
      let count f = List.length (List.filter f of_kind) in
      {
        row_kind = kname;
        row_trials = List.length of_kind;
        row_injected = count (fun o -> o.injected);
        row_detected = count (fun o -> o.detected);
        row_recovered = count (fun o -> o.recovered);
        row_masked = count (fun o -> o.masked);
        row_correct = count (fun o -> o.correct);
      })
    kind_names

let run ?pool ?gov ?(mode = Scrub) ?(kinds = Fault.all_kinds)
    ?(trials_per_kind = 3) ?(workload = Face_app.smoke_workload)
    ?(scrub_period_ns = 10_000) ~seed () =
  let pool = Par.get pool in
  let gov = Gov.get gov in
  let sp =
    if Obs.enabled () then
      Obs.begin_span ~track:"resil" ~cat:"resil"
        ~args:
          [ ("seed", Json.Int seed); ("mode", Json.Str (mode_to_string mode)) ]
        "resil.campaign"
    else Obs.null_span
  in
  let base_config =
    match mode with
    | Scrub -> Level3.default_config
    | Tmr -> { Level3.default_config with Level3.masked = true }
  in
  (* One case study for every trial: its graph and level-3 mapping are
     forced here, since no Par job may force a part. *)
  let cs = Face_app.case_study workload in
  let graph = Lazy.force cs.graph in
  let mapping = Lazy.force cs.mapping3 in
  (* Fault-free baseline, on the calling domain.  The tap only counts
     the write transactions (always answering Okay, the same path the
     bus takes with no hook installed), so the baseline stays
     byte-identical to the control trial while telling us how many
     writes a bus fault can actually target. *)
  let write_count = ref 0 in
  let count_writes ~bus ~fpga:_ ~kernel:_ =
    Bus.inject_faults bus
      (Some
         (fun txn ~attempt ->
           (match txn.Transaction.kind with
           | Transaction.Write -> if attempt = 0 then incr write_count
           | _ -> ());
           Bus.Okay))
  in
  let baseline = Level3.run ~config:base_config ~tap:count_writes graph mapping in
  let base_winner = winner_stream baseline.Level3.trace in
  (* the plan: control first, then trials_per_kind injections per kind,
     drawn sequentially from the seed — independent of the pool width.
     Bus-borne faults are clamped onto the write transactions the
     baseline actually performs, so no planned fault can miss a small
     workload. *)
  let rng = Rng.create (if seed = 0 then 0x5EED else seed) in
  let clamp = function
    | Fault.Bus { txn_index; error; count } ->
        Fault.Bus { txn_index = txn_index mod max 1 !write_count; error; count }
    | Fault.Flip { txn_index; bits; count } ->
        Fault.Flip { txn_index = txn_index mod max 1 !write_count; bits; count }
    | inj -> inj
  in
  let injections =
    List.concat_map
      (fun k ->
        List.init trials_per_kind (fun _ -> clamp (Fault.plan_injection rng k)))
      kinds
  in
  let plan =
    List.mapi (fun i inj -> (i, inj)) (None :: List.map Option.some injections)
  in
  (* governor gate, read once before the fan-out so the answer cannot
     depend on scheduling: each trial costs one pattern *)
  let n = List.length plan in
  let allowed =
    if Gov.out_of_budget gov then 0
    else
      match Gov.patterns_left gov with None -> n | Some p -> min n p
  in
  Gov.charge_patterns gov allowed;
  let to_run = List.filteri (fun i _ -> i < allowed) plan in
  let to_skip = List.filteri (fun i _ -> i >= allowed) plan in
  if to_skip <> [] then
    Gov.note_degraded gov ~what:"resil.campaign"
      (Option.value ~default:Degrade.Patterns (Gov.exhaustion gov));
  let ran =
    Par.map ~label:"resil.trials" pool
      (run_one ~graph ~mapping ~baseline ~base_winner ~base_config
         ~scrub_period_ns)
      to_run
  in
  let outcomes = ran @ List.map skipped_outcome to_skip in
  let kind_names = List.map Fault.kind_to_string kinds in
  let control_ok =
    List.exists (fun o -> String.equal o.kind "control" && trial_passed o)
      outcomes
  in
  let skipped = List.length to_skip in
  let masked_trials =
    List.length
      (List.filter (fun (o : outcome) -> (not o.skipped) && o.masked) outcomes)
  in
  let passed = skipped = 0 && List.for_all trial_passed outcomes in
  if Obs.enabled () then begin
    List.iter
      (fun (o : outcome) ->
        if not o.skipped then begin
          Obs.event
            ~severity:
              (if trial_passed o then Symbad_obs.Severity.Info
               else Symbad_obs.Severity.Warn)
            ~args:
              [
                ("trial", Json.Int o.trial);
                ("kind", Json.Str o.kind);
                ("injected", Json.Bool o.injected);
                ("detected", Json.Bool o.detected);
                ("recovered", Json.Bool o.recovered);
                ("masked", Json.Bool o.masked);
                ("correct", Json.Bool o.correct);
              ]
            "resil.trial";
          Obs.observe "resil.recovery_ns" o.recovery_ns;
          if o.injected then Obs.incr_counter "resil.injected";
          if o.detected then Obs.incr_counter "resil.detected";
          if o.recovered then Obs.incr_counter "resil.recovered";
          if o.masked then Obs.incr_counter "resil.masked"
        end)
      outcomes;
    Obs.end_span ~args:[ ("passed", Json.Bool passed) ] sp
  end;
  {
    seed;
    mode = mode_to_string mode;
    trials_per_kind;
    kind_names;
    baseline_latency_ns = baseline.Level3.latency_ns;
    fabric_area = baseline.Level3.fpga_stats.Fpga.area_loaded;
    outcomes;
    per_kind = per_kind_rows kind_names outcomes;
    control_ok;
    skipped;
    masked_trials;
    histogram = histogram_of outcomes;
    passed;
  }

let first_failure r =
  List.find_opt
    (fun (o : outcome) -> (not o.skipped) && not (trial_passed o))
    r.outcomes

let verdict r =
  let name = "fault campaign" in
  match first_failure r with
  | Some o ->
      let why =
        Printf.sprintf "trial %d (%s, %s): %s" o.trial o.kind o.injection
          o.detail
      in
      Verdict.make ~name ~detail:why (Verdict.Disproved why)
  | None ->
      if r.skipped > 0 then
        let why =
          Printf.sprintf "%d of %d trials skipped (budget)" r.skipped
            (List.length r.outcomes)
        in
        Verdict.make ~name ~detail:why (Verdict.Inconclusive why)
      else
        let total = List.length r.outcomes in
        Verdict.make ~name
          ~detail:
            (Printf.sprintf
               "%d trials (%s mode): all faults detected, recovered, correct \
                winner; %d masked"
               total r.mode r.masked_trials)
          Verdict.Proved

let outcome_to_json o =
  Json.Obj
    [
      ("trial", Json.Int o.trial);
      ("kind", Json.Str o.kind);
      ("injection", Json.Str o.injection);
      ("injected", Json.Bool o.injected);
      ("detected", Json.Bool o.detected);
      ("recovered", Json.Bool o.recovered);
      ("masked", Json.Bool o.masked);
      ("correct", Json.Bool o.correct);
      ("skipped", Json.Bool o.skipped);
      ("recovery_ns", Json.Int o.recovery_ns);
      ("detail", Json.Str o.detail);
    ]

let to_json r =
  Json.Obj
    [
      ("seed", Json.Int r.seed);
      ("mode", Json.Str r.mode);
      ("trials_per_kind", Json.Int r.trials_per_kind);
      ("kinds", Json.List (List.map (fun k -> Json.Str k) r.kind_names));
      ("baseline_latency_ns", Json.Int r.baseline_latency_ns);
      ("fabric_area", Json.Int r.fabric_area);
      ("control_ok", Json.Bool r.control_ok);
      ("skipped", Json.Int r.skipped);
      ("masked_trials", Json.Int r.masked_trials);
      ("passed", Json.Bool r.passed);
      ( "per_kind",
        Json.List
          (List.map
             (fun row ->
               Json.Obj
                 [
                   ("kind", Json.Str row.row_kind);
                   ("trials", Json.Int row.row_trials);
                   ("injected", Json.Int row.row_injected);
                   ("detected", Json.Int row.row_detected);
                   ("recovered", Json.Int row.row_recovered);
                   ("masked", Json.Int row.row_masked);
                   ("correct", Json.Int row.row_correct);
                 ])
             r.per_kind) );
      ( "recovery_ns_histogram",
        Json.Obj (List.map (fun (b, c) -> (b, Json.Int c)) r.histogram) );
      ("trials", Json.List (List.map outcome_to_json r.outcomes));
    ]

let to_markdown r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# Fault-injection campaign\n\n";
  Buffer.add_string b
    (Printf.sprintf
       "seed %d, %s mode, %d trials/kind, baseline latency %d ns, fabric \
        area %d — %s\n\n"
       r.seed r.mode r.trials_per_kind r.baseline_latency_ns r.fabric_area
       (if r.passed then "PASS"
        else if r.skipped > 0 && first_failure r = None then "INCONCLUSIVE"
        else "FAIL"));
  Buffer.add_string b
    "| kind | trials | injected | detected | recovered | masked | correct |\n";
  Buffer.add_string b "|---|---|---|---|---|---|---|\n";
  List.iter
    (fun row ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %d | %d | %d | %d | %d | %d |\n" row.row_kind
           row.row_trials row.row_injected row.row_detected row.row_recovered
           row.row_masked row.row_correct))
    r.per_kind;
  Buffer.add_string b "\n| recovery latency (sim) | trials |\n|---|---|\n";
  List.iter
    (fun (bucket, count) ->
      Buffer.add_string b (Printf.sprintf "| %s ns | %d |\n" bucket count))
    r.histogram;
  if r.skipped > 0 then
    Buffer.add_string b
      (Printf.sprintf "\n%d trials skipped: resource budget exhausted.\n"
         r.skipped);
  (match first_failure r with
  | Some o ->
      Buffer.add_string b
        (Printf.sprintf "\nFirst failure: trial %d (%s, %s): %s\n" o.trial
           o.kind o.injection o.detail)
  | None -> ());
  Buffer.contents b

(* --- masked vs scrubbing-only comparison ------------------------------ *)

let executed_injected r =
  List.filter
    (fun (o : outcome) ->
      (not o.skipped) && not (String.equal o.kind "control"))
    r.outcomes

let survived r = List.length (List.filter trial_passed (executed_injected r))

let zero_recovery r =
  List.length
    (List.filter (fun o -> o.recovery_ns = 0) (executed_injected r))

let compare_modes ~scrub ~tmr =
  let pair f = Json.Obj [ ("scrub", f scrub); ("tmr", f tmr) ] in
  let int_of f r = Json.Int (f r) in
  Json.Obj
    [
      ("trials", pair (int_of (fun r -> List.length (executed_injected r))));
      ("survived", pair (int_of survived));
      ("masked", pair (int_of (fun r -> r.masked_trials)));
      ("zero_recovery", pair (int_of zero_recovery));
      ("fabric_area", pair (int_of (fun r -> r.fabric_area)));
      ("baseline_latency_ns", pair (int_of (fun r -> r.baseline_latency_ns)));
      ( "recovery_ns_histogram",
        pair (fun r ->
            Json.Obj (List.map (fun (b, c) -> (b, Json.Int c)) r.histogram)) );
    ]

let compare_modes_markdown ~scrub ~tmr =
  let b = Buffer.create 512 in
  Buffer.add_string b "# Masked vs scrubbing-only\n\n";
  Buffer.add_string b "| metric | scrub | tmr |\n|---|---|---|\n";
  let row name f g =
    Buffer.add_string b
      (Printf.sprintf "| %s | %s | %s |\n" name (f scrub) (g tmr))
  in
  let both name f = row name f f in
  both "fault trials" (fun r -> string_of_int (List.length (executed_injected r)));
  both "survived (passed)" (fun r -> string_of_int (survived r));
  both "masked (zero-latency, correct)" (fun r -> string_of_int r.masked_trials);
  both "zero recovery latency" (fun r -> string_of_int (zero_recovery r));
  both "fabric area consumed" (fun r -> string_of_int r.fabric_area);
  both "baseline latency (ns)" (fun r -> string_of_int r.baseline_latency_ns);
  Buffer.add_string b "\n| recovery latency (sim) | scrub | tmr |\n|---|---|---|\n";
  let buckets =
    List.sort_uniq
      (fun a b -> compare (String.length a, a) (String.length b, b))
      (List.map fst scrub.histogram @ List.map fst tmr.histogram)
  in
  List.iter
    (fun bucket ->
      let c r = Option.value ~default:0 (List.assoc_opt bucket r.histogram) in
      Buffer.add_string b
        (Printf.sprintf "| %s ns | %d | %d |\n" bucket (c scrub) (c tmr)))
    buckets;
  Buffer.contents b
