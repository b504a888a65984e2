(* 8-bit grayscale images.  Pixels are ints clamped to [0, 255]; the type
   also carries binary masks (values 0/255) produced by edge detection. *)

type t = { width : int; height : int; pixels : int array }

let create ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Image.create: dimensions";
  { width; height; pixels = Array.make (width * height) 0 }

let of_pixels ~width ~height pixels =
  if width <= 0 || height <= 0 then invalid_arg "Image.of_pixels: dimensions";
  if Array.length pixels <> width * height then
    invalid_arg "Image.of_pixels: length";
  { width; height; pixels }

let width img = img.width
let height img = img.height
let pixels img = img.pixels

let clamp v = if v < 0 then 0 else if v > 255 then 255 else v

let in_bounds img x y = x >= 0 && x < img.width && y >= 0 && y < img.height

let get img x y =
  if not (in_bounds img x y) then invalid_arg "Image.get: out of bounds";
  img.pixels.(y * img.width + x)

let get_clamped img x y =
  (* replicate border pixels, the usual convolution boundary policy *)
  let x = if x < 0 then 0 else if x >= img.width then img.width - 1 else x in
  let y = if y < 0 then 0 else if y >= img.height then img.height - 1 else y in
  img.pixels.(y * img.width + x)

let set img x y v =
  if not (in_bounds img x y) then invalid_arg "Image.set: out of bounds";
  img.pixels.(y * img.width + x) <- clamp v

let fill img v =
  let v = clamp v in
  Array.fill img.pixels 0 (Array.length img.pixels) v

let copy img = { img with pixels = Array.copy img.pixels }

let equal a b =
  a.width = b.width && a.height = b.height && a.pixels = b.pixels

let mean img =
  let sum = Array.fold_left ( + ) 0 img.pixels in
  sum / Array.length img.pixels

let histogram img =
  let h = Array.make 256 0 in
  Array.iter (fun p -> h.(p) <- h.(p) + 1) img.pixels;
  h

let count_above img threshold =
  Array.fold_left (fun n p -> if p > threshold then n + 1 else n) 0 img.pixels

(* Compact digest used for trace comparison: dimensions, mean, and a
   64-bit FNV-1a hash of the pixel data.  A local loop keeps the int64
   accumulator unboxed; a closure over it would box every step. *)
let digest img =
  let px = img.pixels in
  let fnv = ref 0xcbf29ce484222325L and sum = ref 0 in
  for i = 0 to Array.length px - 1 do
    let p = px.(i) in
    sum := !sum + p;
    fnv := Int64.mul (Int64.logxor !fnv (Int64.of_int p)) 0x100000001b3L
  done;
  Printf.sprintf "%dx%d/m%d/%Lx" img.width img.height
    (!sum / Array.length px)
    !fnv

let pp fmt img =
  Fmt.pf fmt "<image %dx%d mean=%d>" img.width img.height (mean img)
