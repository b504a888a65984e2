(* The dynamically reconfigurable device.

   At most one context is loaded at a time.  Reconfiguration downloads the
   context's bitstream over the system bus (that traffic is the level-3
   performance effect the paper measures) and then spends programming time
   proportional to the bitstream size.  Invoking a resource that is not in
   the loaded context raises [Inconsistent] — the runtime violation whose
   static absence SymbC certifies.

   Dependability additions: every download is CRC-checked against the
   context's golden image and re-downloaded (bounded) on mismatch; the
   loaded configuration memory can suffer an upset, detected by readback
   scrubbing which reloads the context; resources can wedge (stuck-at),
   which the platform watchdog turns into a health downgrade and a
   software fallback at level 3. *)

module Proc = Symbad_sim.Process
module Time = Symbad_sim.Time
module Bus = Symbad_tlm.Bus
module Transaction = Symbad_tlm.Transaction
module Obs = Symbad_obs.Obs
module Json = Symbad_obs.Json

exception Inconsistent of { resource : string; loaded : string option }
exception Download_failed of { fpga : string; context : string; attempts : int }

type t = {
  name : string;
  copies : int;  (* 1 = simplex, 3 = TMR with majority voting *)
  contexts : Context.t list;
  program_ns_per_byte : int;
  burst_bytes : int;  (* bus-burst granularity of bitstream downloads *)
  mutable loaded : Context.t option;
  (* per-context, per-copy upset flags: inactive contexts keep resident
     configuration frames in their resource areas, so SEUs hit them too *)
  corrupt : (string, bool array) Hashtbl.t;
  mutable stuck : string list;
  mutable healthy : bool;
  mutable download_fault : (attempt:int -> word:int -> int) option;
  mutable reconfigurations : int;
  mutable noop_reconfigurations : int;
  mutable bitstream_bytes_total : int;
  mutable reconfig_ns_total : int;
  mutable calls : int;
  mutable crc_mismatches : int;
  mutable retried_downloads : int;
  mutable failed_downloads : int;
  mutable scrubs : int;
  mutable scrub_reloads : int;
  mutable watchdog_fires : int;
  mutable voter_disagreements : int;
  mutable targeted_repairs : int;
  mutable repair_bytes : int;
  mutable area_loaded : int;  (* largest resource area ever consumed *)
}

let create ?(capacity = 10_000) ?(copies = 1) ?(program_ns_per_byte = 1)
    ?(burst_bytes = 8) ~contexts name =
  if copies <> 1 && copies <> 3 then
    invalid_arg "Fpga.create: copies must be 1 (simplex) or 3 (TMR)";
  List.iter
    (fun c ->
      if Context.area c * copies > capacity then
        invalid_arg
          (Printf.sprintf
             "Fpga.create: context %s area %d x %d copies exceeds capacity %d"
             (Context.name c) (Context.area c) copies capacity))
    contexts;
  if burst_bytes <= 0 then invalid_arg "Fpga.create: burst_bytes";
  let corrupt = Hashtbl.create 8 in
  List.iter
    (fun c -> Hashtbl.replace corrupt (Context.name c) (Array.make copies false))
    contexts;
  {
    name;
    copies;
    contexts;
    program_ns_per_byte;
    burst_bytes;
    loaded = None;
    corrupt;
    stuck = [];
    healthy = true;
    download_fault = None;
    reconfigurations = 0;
    noop_reconfigurations = 0;
    bitstream_bytes_total = 0;
    reconfig_ns_total = 0;
    calls = 0;
    crc_mismatches = 0;
    retried_downloads = 0;
    failed_downloads = 0;
    scrubs = 0;
    scrub_reloads = 0;
    watchdog_fires = 0;
    voter_disagreements = 0;
    targeted_repairs = 0;
    repair_bytes = 0;
    area_loaded = 0;
  }

let copies f = f.copies
let loaded f = f.loaded
let is_healthy f = f.healthy
let mark_unhealthy f = f.healthy <- false
let inject_download_fault f h = f.download_fault <- h

let flags_of f ctx =
  match Hashtbl.find_opt f.corrupt (Context.name ctx) with
  | Some a -> a
  | None ->
      let a = Array.make f.copies false in
      Hashtbl.replace f.corrupt (Context.name ctx) a;
      a

let context_corrupted f ctx = Array.exists Fun.id (flags_of f ctx)

let loaded_corrupted f =
  match f.loaded with Some ctx -> context_corrupted f ctx | None -> false

let upset_context ?(copy = 0) f ctx_name =
  match
    List.find_opt (fun c -> String.equal (Context.name c) ctx_name) f.contexts
  with
  | Some ctx ->
      (flags_of f ctx).(min (max copy 0) (f.copies - 1)) <- true;
      true
  | None -> false

let upset_loaded ?(copy = 0) f =
  match f.loaded with
  | Some ctx -> upset_context ~copy f (Context.name ctx)
  | None -> false

let set_stuck f resource =
  if not (List.mem resource f.stuck) then f.stuck <- resource :: f.stuck

let clear_stuck f = f.stuck <- []
let responding f resource = not (List.mem resource f.stuck)

let note_watchdog f =
  f.watchdog_fires <- f.watchdog_fires + 1;
  if Obs.enabled () then
    Obs.event ~severity:Symbad_obs.Severity.Warn
      ~args:[ ("fpga", Json.Str f.name) ]
      ~sim_ns:(Time.to_ns (Proc.now ()))
      "fpga.watchdog"

let find_context f ctx_name =
  match
    List.find_opt (fun c -> String.equal (Context.name c) ctx_name) f.contexts
  with
  | Some c -> c
  | None -> invalid_arg ("Fpga.find_context: unknown context " ^ ctx_name)

(* Push [bytes] of the named kind over the bus in burst-sized,
   individually arbitrated transactions. *)
let bus_stream f ~bus ~master ~kind bytes =
  let remaining = ref bytes in
  while !remaining > 0 do
    let chunk = min f.burst_bytes !remaining in
    Bus.transfer ~priority:2 bus
      (Transaction.make ~master ~target:f.name ~kind ~bytes:chunk);
    remaining := !remaining - chunk
  done

(* One download attempt: ship the bitstream over the bus and return the
   CRC of what arrived (the injected fault hook xors word masks in).
   [Error `Bus] when the bus gave up mid-download. *)
let download_once f ~bus ~master ctx ~attempt =
  let bytes = Context.bitstream_bytes ctx in
  let nwords = Context.bitstream_words ctx in
  match bus_stream f ~bus ~master ~kind:Transaction.Bitstream bytes with
  | () ->
      f.bitstream_bytes_total <- f.bitstream_bytes_total + bytes;
      let arrived i =
        let mask =
          match f.download_fault with
          | None -> 0
          | Some h -> h ~attempt ~word:i
        in
        Context.bitstream_word ctx i lxor mask
      in
      Ok (Crc.words arrived nwords)
  | exception Bus.Transfer_failed _ -> Error `Bus

(* Download with integrity checking: CRC mismatches and bus failures
   trigger up to two re-downloads, then [Download_failed]. *)
let checked_download f ~bus ~master ctx =
  let golden = Context.golden_crc ctx in
  let ctx_name = Context.name ctx in
  let rec go attempt =
    let failed_attempt () =
      if attempt >= 2 then begin
        f.failed_downloads <- f.failed_downloads + 1;
        raise
          (Download_failed
             { fpga = f.name; context = ctx_name; attempts = attempt + 1 })
      end
      else begin
        f.retried_downloads <- f.retried_downloads + 1;
        if Obs.enabled () then
          Obs.event ~severity:Symbad_obs.Severity.Warn
            ~args:
              [
                ("fpga", Json.Str f.name);
                ("context", Json.Str ctx_name);
                ("attempt", Json.Int attempt);
              ]
            ~sim_ns:(Time.to_ns (Proc.now ()))
            "fpga.redownload";
        go (attempt + 1)
      end
    in
    match download_once f ~bus ~master ctx ~attempt with
    | Ok crc when crc = golden -> ()
    | Ok _ ->
        f.crc_mismatches <- f.crc_mismatches + 1;
        failed_attempt ()
    | Error `Bus -> failed_attempt ()
  in
  go 0

let note_scrub_reload f ctx =
  f.scrub_reloads <- f.scrub_reloads + 1;
  if Obs.enabled () then
    Obs.event ~severity:Symbad_obs.Severity.Warn
      ~args:
        [
          ("fpga", Json.Str f.name); ("context", Json.Str (Context.name ctx));
        ]
      ~sim_ns:(Time.to_ns (Proc.now ()))
      "fpga.scrub_reload"

(* Download the bitstream over [bus] (as the SW running on [master] would)
   and program the fabric.  No-op if the context is already loaded.
   With [verify_previous] (the readback-on-context-switch half of the
   scrubbing feature) an upset in the outgoing context is detected and
   counted before it is overwritten — without it, an upset that a later
   reconfiguration happens to erase was never observed by anyone. *)
(* Load every redundant copy: in TMR the bitstream is downloaded and
   programmed once per resource area — the 3x reconfiguration price of
   the masked mode, paid in real bus traffic and programming time. *)
let load_all_copies f ~bus ~master ctx =
  for _ = 1 to f.copies do
    checked_download f ~bus ~master ctx
  done;
  Proc.wait
    (Time.ns (Context.bitstream_bytes ctx * f.copies * f.program_ns_per_byte));
  Array.fill (flags_of f ctx) 0 f.copies false;
  f.area_loaded <- max f.area_loaded (Context.area ctx * f.copies)

let reconfigure ?(verify_previous = false) f ~bus ~master ctx_name =
  let ctx = find_context f ctx_name in
  let already =
    match f.loaded with
    | Some c -> String.equal (Context.name c) ctx_name
    | None -> false
  in
  let corrupt_repair = verify_previous && loaded_corrupted f in
  if corrupt_repair then
    Option.iter (note_scrub_reload f) f.loaded;
  if already && corrupt_repair then
    (* same context requested while corrupt: repair in place *)
    load_all_copies f ~bus ~master ctx
  else if already then
    f.noop_reconfigurations <- f.noop_reconfigurations + 1
  else begin
    let bytes = Context.bitstream_bytes ctx * f.copies in
    let t0 = Time.to_ns (Proc.now ()) in
    let sp =
      if Obs.enabled () then
        Obs.begin_span ~track:master ~cat:"fpga"
          ~args:
            [ ("context", Json.Str ctx_name); ("bytes", Json.Int bytes) ]
          ~sim_ns:t0 "fpga.reconfigure"
      else Obs.null_span
    in
    (* the download is real bus traffic: one burst-sized transaction per
       chunk, each arbitrated — this fine-grained modelling is what makes
       level-3 simulation markedly slower than level 2.  A download that
       gives up closes the span before the failure propagates, or every
       later span on the timeline would nest under it. *)
    (try load_all_copies f ~bus ~master ctx
     with Download_failed _ as e ->
       Obs.end_span
         ~args:[ ("failed", Json.Bool true) ]
         ~sim_ns:(Time.to_ns (Proc.now ()))
         sp;
       raise e);
    f.loaded <- Some ctx;
    f.reconfigurations <- f.reconfigurations + 1;
    f.reconfig_ns_total <-
      f.reconfig_ns_total + (Time.to_ns (Proc.now ()) - t0);
    if Obs.enabled () then begin
      let now_ns = Time.to_ns (Proc.now ()) in
      Obs.event
        ~args:
          [
            ("fpga", Json.Str f.name);
            ("context", Json.Str ctx_name);
            ("bitstream_bytes", Json.Int bytes);
            ("download_ns", Json.Int (now_ns - t0));
          ]
        ~sim_ns:now_ns "fpga.context_switch";
      Obs.incr_counter "fpga.reconfigurations";
      Obs.incr_counter ~by:bytes "fpga.bitstream_bytes";
      Obs.end_span ~sim_ns:now_ns sp
    end
  end

(* Readback scrubbing: stream the configuration memory back over the bus,
   compare its CRC against the golden image and reload on mismatch.
   [context] scrubs the named context's resource area even while another
   context is active — inactive configuration frames stay resident and
   collect upsets too — without touching the active one. *)
let scrub ?context f ~bus ~master =
  f.scrubs <- f.scrubs + 1;
  let target =
    match context with Some n -> Some (find_context f n) | None -> f.loaded
  in
  match target with
  | None -> false
  | Some ctx ->
      let bytes = Context.bitstream_bytes ctx in
      bus_stream f ~bus ~master ~kind:Transaction.Read (bytes * f.copies);
      let flags = flags_of f ctx in
      if not (Array.exists Fun.id flags) then false
      else begin
        note_scrub_reload f ctx;
        (* reload only the corrupt copies — one download each *)
        Array.iteri
          (fun i bad ->
            if bad then begin
              checked_download f ~bus ~master ctx;
              Proc.wait (Time.ns (bytes * f.program_ns_per_byte));
              flags.(i) <- false
            end)
          flags;
        true
      end

(* The TMR majority vote at result-readout time (cf. [Symbad_hdl.Tmr]:
   the voter is combinational, its masking contract model-checked).
   Exactly one corrupt copy is outvoted — the result is correct — and
   its disagreement flag drives a targeted repair of just that resource
   area over the internal configuration port, overlapping continued
   voted operation: only counters and repair bytes move, no simulated
   time.  Two or more corrupt copies defeat the vote. *)
let vote_and_repair f =
  match f.loaded with
  | None -> `Clean
  | Some ctx -> (
      if f.copies < 3 then if loaded_corrupted f then `Corrupt else `Clean
      else
        let flags = flags_of f ctx in
        let bad = Array.to_list flags |> List.filter Fun.id |> List.length in
        match bad with
        | 0 -> `Clean
        | 1 ->
            let i = ref 0 in
            Array.iteri (fun j b -> if b then i := j) flags;
            f.voter_disagreements <- f.voter_disagreements + 1;
            f.targeted_repairs <- f.targeted_repairs + 1;
            f.repair_bytes <- f.repair_bytes + Context.bitstream_bytes ctx;
            flags.(!i) <- false;
            if Obs.enabled () then begin
              Obs.event ~severity:Symbad_obs.Severity.Warn
                ~args:
                  [
                    ("fpga", Json.Str f.name);
                    ("context", Json.Str (Context.name ctx));
                    ("copy", Json.Int !i);
                  ]
                ~sim_ns:(Time.to_ns (Proc.now ()))
                "fpga.voter_disagreement";
              Obs.incr_counter "fpga.voter_disagreements";
              Obs.incr_counter "fpga.targeted_repairs"
            end;
            `Masked
        | _ -> `Corrupt)

(* Check that [resource] is available; the actual computation timing is
   modelled by the caller (it knows the annotated cycle cost). *)
let require f resource =
  f.calls <- f.calls + 1;
  match f.loaded with
  | Some ctx when Context.provides ctx resource -> ()
  | Some ctx ->
      raise (Inconsistent { resource; loaded = Some (Context.name ctx) })
  | None -> raise (Inconsistent { resource; loaded = None })

type stats = {
  reconfigurations : int;
  noop_reconfigurations : int;
  bitstream_bytes : int;
  reconfig_ns : int;
  resource_calls : int;
  crc_mismatches : int;
  retried_downloads : int;
  failed_downloads : int;
  scrubs : int;
  scrub_reloads : int;
  watchdog_fires : int;
  copies : int;
  voter_disagreements : int;
  targeted_repairs : int;
  repair_bytes : int;
  area_loaded : int;
}

let stats (f : t) =
  {
    reconfigurations = f.reconfigurations;
    noop_reconfigurations = f.noop_reconfigurations;
    bitstream_bytes = f.bitstream_bytes_total;
    reconfig_ns = f.reconfig_ns_total;
    resource_calls = f.calls;
    crc_mismatches = f.crc_mismatches;
    retried_downloads = f.retried_downloads;
    failed_downloads = f.failed_downloads;
    scrubs = f.scrubs;
    scrub_reloads = f.scrub_reloads;
    watchdog_fires = f.watchdog_fires;
    copies = f.copies;
    voter_disagreements = f.voter_disagreements;
    targeted_repairs = f.targeted_repairs;
    repair_bytes = f.repair_bytes;
    area_loaded = f.area_loaded;
  }

let pp_stats fmt s =
  Fmt.pf fmt
    "reconfigs=%d noop=%d bitstream=%dB reconfig_time=%dns calls=%d \
     crc_mismatches=%d retried_dl=%d failed_dl=%d scrubs=%d scrub_reloads=%d \
     watchdog=%d copies=%d disagreements=%d targeted=%d repair=%dB area=%d"
    s.reconfigurations s.noop_reconfigurations s.bitstream_bytes s.reconfig_ns
    s.resource_calls s.crc_mismatches s.retried_downloads s.failed_downloads
    s.scrubs s.scrub_reloads s.watchdog_fires s.copies s.voter_disagreements
    s.targeted_repairs s.repair_bytes s.area_loaded
