(* Data tokens flowing through the system models.

   The same token values travel through every refinement level (that is
   what makes trace comparison meaningful); what changes per level is how
   their *transport* is modelled.  [bytes] sizes the bus transactions at
   levels 2-3; [digest] is the canonical trace representation. *)

module Image = Symbad_image.Image
module Ellipse = Symbad_image.Ellipse
module Line = Symbad_image.Line
module Winner = Symbad_image.Winner

type t =
  | Frame of Image.t
  | Shape of Ellipse.t
  | Scan of Line.scan
  | Vec of int array
  | Mat of int array array
  | Num of int
  | Verdict of Winner.verdict

(* Transport size in bytes (16-bit components, 8-bit pixels). *)
let bytes = function
  | Frame img -> Image.width img * Image.height img
  | Shape _ -> 16
  | Scan s -> 2 * (Array.length s.Line.rows + Array.length s.Line.cols)
  | Vec v -> 2 * Array.length v
  | Mat m -> 2 * Array.fold_left (fun acc row -> acc + Array.length row) 0 m
  | Num _ -> 4
  | Verdict _ -> 4

(* Count and 64-bit FNV-1a hash of the rows' elements read as one
   sequence, walked in place.  A local loop keeps the int64 accumulator
   unboxed, as in [Image.digest]; a closure over it would box every
   step. *)
let rows_digest rows =
  let fnv = ref 0xcbf29ce484222325L and n = ref 0 in
  for r = 0 to Array.length rows - 1 do
    let row = rows.(r) in
    n := !n + Array.length row;
    for i = 0 to Array.length row - 1 do
      fnv := Int64.mul (Int64.logxor !fnv (Int64.of_int row.(i))) 0x100000001b3L
    done
  done;
  Printf.sprintf "v%d/%Lx" !n !fnv

let digest = function
  | Frame img -> "F" ^ Image.digest img
  | Shape e -> "E" ^ Ellipse.digest e
  | Scan s -> "S" ^ rows_digest [| s.Line.rows; s.Line.cols |]
  | Vec v -> "V" ^ rows_digest [| v |]
  | Mat m -> "M" ^ rows_digest m
  | Num n -> "N" ^ string_of_int n
  | Verdict v -> "W" ^ Fmt.str "%a" Winner.pp v

let kind_to_string = function
  | Frame _ -> "frame"
  | Shape _ -> "shape"
  | Scan _ -> "scan"
  | Vec _ -> "vec"
  | Mat _ -> "mat"
  | Num _ -> "num"
  | Verdict _ -> "verdict"

(* Deterministic payload corruption for fault-injection campaigns: an
   SEU in the datapath flips bits of the numeric payloads.  The mask
   keeps values non-negative (distances feed isqrt); structural tokens
   (frames, shapes, scans, verdicts) travel through the front end the
   fabric never computes, so they stay untouched. *)
let garble_mask = 0x1555

let garble = function
  | Vec v -> Vec (Array.map (fun x -> x lxor garble_mask) v)
  | Mat m -> Mat (Array.map (Array.map (fun x -> x lxor garble_mask)) m)
  | Num n -> Num (n lxor garble_mask)
  | (Frame _ | Shape _ | Scan _ | Verdict _) as t -> t

(* Typed accessors; models raise on protocol violations, which makes
   wiring errors in task graphs fail fast. *)
let to_frame = function Frame i -> i | t -> invalid_arg ("Token: expected frame, got " ^ kind_to_string t)
let to_shape = function Shape e -> e | t -> invalid_arg ("Token: expected shape, got " ^ kind_to_string t)
let to_scan = function Scan s -> s | t -> invalid_arg ("Token: expected scan, got " ^ kind_to_string t)
let to_vec = function Vec v -> v | t -> invalid_arg ("Token: expected vec, got " ^ kind_to_string t)
let to_mat = function Mat m -> m | t -> invalid_arg ("Token: expected mat, got " ^ kind_to_string t)
