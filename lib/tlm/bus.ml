(* AMBA-like shared bus model at transaction level.

   One transaction owns the bus at a time; pending masters are granted in
   fixed-priority order (lower number = higher priority), which is the AHB
   arbitration scheme.  The transfer cost model is
     cycles = arbitration + setup + ceil(bytes / width)
   and the model accumulates utilisation and per-master statistics, the
   "bus loading" figures the paper grades architectures with.

   Slave responses can be faulted (ERROR / RETRY, the AHB non-OKAY
   responses) through an injectable hook; the master-side recovery is a
   bounded retry with exponential backoff. *)

module Proc = Symbad_sim.Process
module Time = Symbad_sim.Time
module Obs = Symbad_obs.Obs
module Json = Symbad_obs.Json

type response = Okay | Error | Retry

exception
  Transfer_failed of { master : string; target : string; attempts : int }

type master_stats = {
  mutable transactions : int;
  mutable bytes : int;
  mutable busy_ns : int;
  mutable wait_ns : int;
}

type t = {
  width_bytes : int;
  period_ns : int;
  ecc : bool;  (* SEC-DED protection on every transfer *)
  mutable busy : bool;
  mutable waiters : (int * int * (unit -> unit)) list;
  mutable next_seq : int;
  mutable busy_ns : int;
  mutable total_transactions : int;
  mutable bitstream_bytes : int;
  mutable data_bytes : int;
  mutable error_responses : int;
  mutable retry_responses : int;
  mutable failed_transfers : int;
  mutable ecc_corrected : int;
  mutable ecc_double_errors : int;
  mutable fault : (Transaction.t -> attempt:int -> response) option;
  mutable corruption : (Transaction.t -> attempt:int -> int) option;
  masters : (string, master_stats) Hashtbl.t;
  mutable start_ns : int option;
  mutable last_release_ns : int;
}

let arbitration_cycles = 1
let setup_cycles = 1
let max_retries = 3

let create ?(width_bytes = 4) ?(period_ns = 10) ?(ecc = false) () =
  if width_bytes <= 0 then invalid_arg "Bus.create: width";
  if period_ns <= 0 then invalid_arg "Bus.create: period";
  {
    width_bytes;
    period_ns;
    ecc;
    busy = false;
    waiters = [];
    next_seq = 0;
    busy_ns = 0;
    total_transactions = 0;
    bitstream_bytes = 0;
    data_bytes = 0;
    error_responses = 0;
    retry_responses = 0;
    failed_transfers = 0;
    ecc_corrected = 0;
    ecc_double_errors = 0;
    fault = None;
    corruption = None;
    masters = Hashtbl.create 8;
    start_ns = None;
    last_release_ns = 0;
  }

let ecc b = b.ecc
let inject_faults b h = b.fault <- h
let inject_corruption b h = b.corruption <- h

let master_stats b master =
  match Hashtbl.find_opt b.masters master with
  | Some s -> s
  | None ->
      let s = { transactions = 0; bytes = 0; busy_ns = 0; wait_ns = 0 } in
      Hashtbl.add b.masters master s;
      s

(* In ECC mode every payload travels as 39-bit codewords per 32 data
   bits: the check bits widen the transfer — the always-paid latency
   price of the protection. *)
let coded_bytes b bytes =
  if b.ecc then ((bytes * Ecc.code_bits) + Ecc.data_bits - 1) / Ecc.data_bits
  else bytes

let transfer_cycles b bytes =
  arbitration_cycles + setup_cycles
  + ((coded_bytes b bytes + b.width_bytes - 1) / b.width_bytes)

let transfer_time b bytes = Time.ns (transfer_cycles b bytes * b.period_ns)

(* Grant the bus to the best waiter (lowest priority number, then FIFO). *)
let grant_next b =
  match b.waiters with
  | [] -> ()
  | ws ->
      let best =
        List.fold_left
          (fun acc w ->
            let (p, s, _) = w and (pa, sa, _) = acc in
            if p < pa || (p = pa && s < sa) then w else acc)
          (List.hd ws) (List.tl ws)
      in
      let (_, seq, resume) = best in
      b.waiters <- List.filter (fun (_, s, _) -> s <> seq) b.waiters;
      resume ()

let rec acquire b ~priority =
  if not b.busy then b.busy <- true
  else begin
    Proc.suspend (fun resume ->
        let seq = b.next_seq in
        b.next_seq <- b.next_seq + 1;
        b.waiters <- (priority, seq, resume) :: b.waiters);
    acquire b ~priority
  end

let release b =
  b.busy <- false;
  b.last_release_ns <- Time.to_ns (Proc.now ());
  grant_next b

(* Run the injected corruption (a number of flipped bits in one coded
   word of the transfer) through the real codec on a deterministic
   witness word.  A corrected single error costs no extra time — the
   correction is combinational on the already-widened transfer; a
   detected double falls back to the master's bounded retry. *)
let ecc_check b (txn : Transaction.t) ~attempt ~flips =
  let word =
    Hashtbl.hash
      (txn.Transaction.master, txn.Transaction.target, txn.Transaction.bytes,
       attempt)
    land 0xFFFF_FFFF
  in
  let p1 = word mod Ecc.code_bits in
  let p2 = (p1 + 1 + (word / Ecc.code_bits mod (Ecc.code_bits - 1)))
           mod Ecc.code_bits in
  let corrupted =
    if flips = 1 then Ecc.encode word lxor (1 lsl p1)
    else Ecc.encode word lxor (1 lsl p1) lxor (1 lsl p2)
  in
  match Ecc.decode corrupted with
  | Ecc.Corrected { word = w; _ } when flips = 1 && w = word ->
      b.ecc_corrected <- b.ecc_corrected + 1;
      if Obs.enabled () then Obs.incr_counter "bus.ecc_corrected";
      `Corrected
  | Ecc.Double_error | Ecc.Corrected _ | Ecc.Ok _ ->
      b.ecc_double_errors <- b.ecc_double_errors + 1;
      if Obs.enabled () then Obs.incr_counter "bus.ecc_double";
      `Uncorrectable

let transfer ?(priority = 8) b (txn : Transaction.t) =
  let t_request = Time.to_ns (Proc.now ()) in
  if b.start_ns = None then b.start_ns <- Some t_request;
  (* one span per transaction, on the master's own track so interleaved
     masters still render as nested rectangles on the timeline *)
  let sp =
    if Obs.enabled () then
      Obs.begin_span ~track:txn.Transaction.master ~cat:"bus"
        ~args:
          [
            ("master", Json.Str txn.Transaction.master);
            ("target", Json.Str txn.Transaction.target);
            ("bytes", Json.Int txn.Transaction.bytes);
            ("priority", Json.Int priority);
          ]
        ~sim_ns:t_request
        ("bus." ^ Transaction.kind_to_string txn.Transaction.kind)
    else Obs.null_span
  in
  let ms = master_stats b txn.Transaction.master in
  let rec attempt_loop attempt =
    let t_attempt = Time.to_ns (Proc.now ()) in
    acquire b ~priority;
    let t_grant = Time.to_ns (Proc.now ()) in
    let duration = transfer_time b txn.Transaction.bytes in
    Proc.wait duration;
    (* The slave drove the bus for the full transfer even when it then
       answers ERROR/RETRY, so busy time accumulates per attempt. *)
    let dur_ns = Time.to_ns duration in
    b.busy_ns <- b.busy_ns + dur_ns;
    ms.busy_ns <- ms.busy_ns + dur_ns;
    ms.wait_ns <- ms.wait_ns + (t_grant - t_attempt);
    let verdict =
      let flips =
        match b.corruption with None -> 0 | Some h -> h txn ~attempt
      in
      if flips > 0 then
        if b.ecc then
          match ecc_check b txn ~attempt ~flips with
          | `Corrected -> `Good  (* masked in place, no retry round-trip *)
          | `Uncorrectable -> `Bad "bus.ecc_double"
        else begin
          (* unprotected bus: the corrupted transfer surfaces as an AHB
             ERROR response and pays the full retry round-trip *)
          b.error_responses <- b.error_responses + 1;
          `Bad "bus.error"
        end
      else
        match
          (match b.fault with None -> Okay | Some h -> h txn ~attempt)
        with
        | Okay -> `Good
        | Error ->
            b.error_responses <- b.error_responses + 1;
            `Bad "bus.error"
        | Retry ->
            b.retry_responses <- b.retry_responses + 1;
            `Bad "bus.retry"
    in
    match verdict with
    | `Good ->
        b.total_transactions <- b.total_transactions + 1;
        (match txn.Transaction.kind with
        | Transaction.Bitstream ->
            b.bitstream_bytes <- b.bitstream_bytes + txn.Transaction.bytes
        | Transaction.Read | Transaction.Write ->
            b.data_bytes <- b.data_bytes + txn.Transaction.bytes);
        ms.transactions <- ms.transactions + 1;
        ms.bytes <- ms.bytes + txn.Transaction.bytes;
        let wait_ns = t_grant - t_request in
        if Obs.enabled () then begin
          Obs.incr_counter "bus.transactions";
          Obs.incr_counter ~by:txn.Transaction.bytes "bus.bytes";
          Obs.observe "bus.grant_wait_ns" wait_ns;
          Obs.end_span
            ~args:
              [
                ("grant_wait_ns", Json.Int wait_ns);
                ("attempts", Json.Int (attempt + 1));
              ]
            ~sim_ns:(Time.to_ns (Proc.now ()))
            sp
        end;
        release b
    | `Bad event_name ->
        release b;
        if Obs.enabled () then
          Obs.event ~severity:Symbad_obs.Severity.Warn
            ~args:
              [
                ("master", Json.Str txn.Transaction.master);
                ("target", Json.Str txn.Transaction.target);
                ("attempt", Json.Int attempt);
              ]
            ~sim_ns:(Time.to_ns (Proc.now ()))
            event_name;
        if attempt >= max_retries then begin
          b.failed_transfers <- b.failed_transfers + 1;
          if Obs.enabled () then
            Obs.end_span
              ~args:[ ("failed", Json.Bool true) ]
              ~sim_ns:(Time.to_ns (Proc.now ()))
              sp;
          raise
            (Transfer_failed
               {
                 master = txn.Transaction.master;
                 target = txn.Transaction.target;
                 attempts = attempt + 1;
               })
        end
        else begin
          (* exponential backoff before re-requesting the bus *)
          Proc.wait (Time.ns (b.period_ns * (1 lsl attempt)));
          attempt_loop (attempt + 1)
        end
  in
  attempt_loop 0

type report = {
  transactions : int;
  busy_ns : int;
  data_bytes : int;
  bitstream_bytes : int;
  error_responses : int;
  retry_responses : int;
  failed_transfers : int;
  ecc_corrected : int;
  ecc_double_errors : int;
  utilisation : float;  (* busy time / observed activity window *)
  per_master : (string * master_stats) list;
}

let report b =
  (* observed activity window: first request to last release.  With no
     transactions (or a degenerate zero-length window) utilisation is
     0.0 by definition, never a division by zero. *)
  let window =
    match b.start_ns with
    | None -> 0
    | Some start -> b.last_release_ns - start
  in
  {
    transactions = b.total_transactions;
    busy_ns = b.busy_ns;
    data_bytes = b.data_bytes;
    bitstream_bytes = b.bitstream_bytes;
    error_responses = b.error_responses;
    retry_responses = b.retry_responses;
    failed_transfers = b.failed_transfers;
    ecc_corrected = b.ecc_corrected;
    ecc_double_errors = b.ecc_double_errors;
    utilisation =
      (if b.total_transactions = 0 || window <= 0 then 0.
       else float_of_int b.busy_ns /. float_of_int window);
    per_master =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) b.masters []
      |> List.sort (fun (a, _) (c, _) -> String.compare a c);
  }

let pp_report fmt r =
  Fmt.pf fmt "transactions=%d busy=%dns data=%dB bitstream=%dB util=%.1f%%"
    r.transactions r.busy_ns r.data_bytes r.bitstream_bytes
    (100. *. r.utilisation);
  if r.error_responses + r.retry_responses + r.failed_transfers > 0 then
    Fmt.pf fmt " errors=%d retries=%d failed=%d" r.error_responses
      r.retry_responses r.failed_transfers;
  if r.ecc_corrected + r.ecc_double_errors > 0 then
    Fmt.pf fmt " ecc_corrected=%d ecc_double=%d" r.ecc_corrected
      r.ecc_double_errors;
  List.iter
    (fun (m, (s : master_stats)) ->
      Fmt.pf fmt "@.  %s: %d txns, %dB, busy %dns, waited %dns" m
        s.transactions s.bytes s.busy_ns s.wait_ns)
    r.per_master
