(* Platform fault model: the non-nominal behaviours the campaign engine
   injects into a level-3 run.  A fault plan is generated from a seed by
   pure arithmetic on the deterministic Rng, so the same seed always
   produces the same campaign at any pool width. *)

module Rng = Symbad_image.Rng

type kind =
  | Bitstream_seu
  | Config_upset
  | Bus_error
  | Fifo_loss
  | Stuck_resource
  | Ecc_single
  | Ecc_double
  | Tmr_upset

let all_kinds =
  [
    Bitstream_seu;
    Config_upset;
    Bus_error;
    Fifo_loss;
    Stuck_resource;
    Ecc_single;
    Ecc_double;
    Tmr_upset;
  ]

let kind_to_string = function
  | Bitstream_seu -> "bitstream_seu"
  | Config_upset -> "config_upset"
  | Bus_error -> "bus_error"
  | Fifo_loss -> "fifo_loss"
  | Stuck_resource -> "stuck_resource"
  | Ecc_single -> "ecc_single"
  | Ecc_double -> "ecc_double"
  | Tmr_upset -> "tmr_upset"

let kind_of_string s =
  List.find_opt (fun k -> String.equal (kind_to_string k) s) all_kinds

let of_string s =
  match kind_of_string s with
  | Some k -> Ok k
  | None ->
      Error
        (Printf.sprintf "unknown fault kind %S (valid kinds: %s)" s
           (String.concat ", " (List.map kind_to_string all_kinds)))

type injection =
  | Seu of { word : int; attempts : int }
  | Upset of { at_permille : int; copy : int }
  | Bus of { txn_index : int; error : bool; count : int }
  | Loss of { channel : string; drop_index : int }
  | Stuck of { resource : string }
  | Flip of { txn_index : int; bits : int; count : int }

let kind_of_injection = function
  | Seu _ -> Bitstream_seu
  | Upset { copy = 0; _ } -> Config_upset
  | Upset _ -> Tmr_upset
  | Bus _ -> Bus_error
  | Loss _ -> Fifo_loss
  | Stuck _ -> Stuck_resource
  | Flip { bits = 1; _ } -> Ecc_single
  | Flip _ -> Ecc_double

let injection_to_string = function
  | Seu { word; attempts } ->
      Printf.sprintf "seu word=%d attempts=%d" word attempts
  | Upset { at_permille; copy = 0 } ->
      Printf.sprintf "upset at=%d/1000" at_permille
  | Upset { at_permille; copy } ->
      Printf.sprintf "upset at=%d/1000 copy=%d" at_permille copy
  | Bus { txn_index; error; count } ->
      Printf.sprintf "bus %s txn=%d count=%d"
        (if error then "error" else "retry")
        txn_index count
  | Loss { channel; drop_index } ->
      Printf.sprintf "loss channel=%s drop=%d" channel drop_index
  | Stuck { resource } -> Printf.sprintf "stuck resource=%s" resource
  | Flip { txn_index; bits; count } ->
      Printf.sprintf "flip bits=%d txn=%d count=%d" bits txn_index count

(* Channels that ride the bus in the face-recognition level-3 mapping:
   the campaign's lossy-link candidates. *)
let lossy_channels = [ "diffs"; "dist2"; "dist" ]

(* FPGA-resident resources of the case study. *)
let fpga_resources = [ "DISTANCE"; "ROOT" ]

(* One injection of the given kind, drawn from the trial's generator.
   Parameters are chosen inside the envelope the platform's recovery
   mechanisms are dimensioned for (retry bounds, scrub period, ECC
   distance), so a correctly wired platform must survive every planned
   fault — which is exactly what the campaign checks. *)
let plan_injection rng = function
  | Bitstream_seu ->
      (* the corrupted word lands in the configuration-frame header
         (first 128 words), present in every context *)
      Seu { word = Rng.int rng 64; attempts = 1 + Rng.int rng 2 }
  | Config_upset ->
      (* between 40% and 85% of the baseline run: after the first
         reconfiguration, before the pipeline drains *)
      Upset { at_permille = 400 + Rng.int rng 450; copy = 0 }
  | Tmr_upset ->
      (* same window, but aimed at a specific TMR copy; on a simplex
         fabric the copy index clamps to 0 and this degenerates to a
         plain configuration upset *)
      Upset { at_permille = 400 + Rng.int rng 450; copy = 1 + Rng.int rng 2 }
  | Bus_error ->
      (* the campaign clamps txn_index onto the write transactions the
         baseline run actually performs, so the fault lands in any
         workload *)
      Bus
        {
          txn_index = Rng.int rng 40;
          error = Rng.bool rng;
          count = 1 + Rng.int rng 3;
        }
  | Ecc_single ->
      (* one flipped bit in one coded word of a data write: inside the
         SEC envelope, corrected in place by an ECC bus; an ERROR-class
         retry on a plain bus *)
      Flip { txn_index = Rng.int rng 40; bits = 1; count = 1 + Rng.int rng 3 }
  | Ecc_double ->
      (* two flipped bits: beyond correction, detected and retried —
         count stays within the bus retry budget *)
      Flip { txn_index = Rng.int rng 40; bits = 2; count = 1 + Rng.int rng 3 }
  | Fifo_loss ->
      (* channels carry one token per frame; dropping attempt 0 or 1
         lands in any workload with at least two frames *)
      Loss
        {
          channel = List.nth lossy_channels (Rng.int rng 3);
          drop_index = Rng.int rng 2;
        }
  | Stuck_resource ->
      Stuck { resource = List.nth fpga_resources (Rng.int rng 2) }
