(* CMOS sensor Bayer stage.

   The camera delivers a raw Bayer-mosaic frame (RGGB): each photosite
   sees the scene through one colour filter with a channel-dependent gain.
   [demosaic] reconstructs a grayscale frame by bilinear interpolation of
   the green plane plus gain-corrected red/blue, which is what the BAYER
   module of the case study computes before the rest of the pipeline. *)

(* Channel gains in 1/256ths: the synthetic scene is gray, so the mosaic
   modulates it per-site and demosaicing must undo that. *)
let gain_r = 205 (* 0.80 *)
let gain_g = 256 (* 1.00 *)
let gain_b = 230 (* 0.90 *)

type channel = R | G | B

let channel_at x y =
  (* RGGB pattern *)
  match (y land 1, x land 1) with
  | 0, 0 -> R
  | 0, 1 -> G
  | 1, 0 -> G
  | _ -> B

let gain = function R -> gain_r | G -> gain_g | B -> gain_b

(* Simulate the sensor: apply the colour-filter gain at each photosite.
   A row alternates two filters, starting at even [x].  Gains are at most
   1, so values stay in range. *)
let mosaic img =
  let w = Image.width img and h = Image.height img in
  let src = Image.pixels img in
  let out = Array.make (w * h) 0 in
  for y = 0 to h - 1 do
    let even = gain (channel_at 0 y) and odd = gain (channel_at 1 y) in
    let row = y * w in
    for x = 0 to w - 1 do
      let g = if x land 1 = 0 then even else odd in
      out.(row + x) <- src.(row + x) * g / 256
    done
  done;
  Image.of_pixels ~width:w ~height:h out

(* Reconstruct gray from the mosaic: undo the per-channel gain at each
   site (clamped: the inverse gains exceed 1), then smooth with the
   quincunx average, borders replicated, to kill the residual
   checkerboard. *)
let demosaic raw =
  let w = Image.width raw and h = Image.height raw in
  let src = Image.pixels raw in
  let c = Array.make (w * h) 0 in
  for y = 0 to h - 1 do
    let even = gain (channel_at 0 y) and odd = gain (channel_at 1 y) in
    let row = y * w in
    for x = 0 to w - 1 do
      let g = if x land 1 = 0 then even else odd in
      c.(row + x) <- Image.clamp (src.(row + x) * 256 / g)
    done
  done;
  let out = Array.make (w * h) 0 in
  for y = 0 to h - 1 do
    let row = y * w in
    let up = if y > 0 then row - w else row
    and down = if y < h - 1 then row + w else row in
    for x = 0 to w - 1 do
      let left = if x > 0 then x - 1 else x
      and right = if x < w - 1 then x + 1 else x in
      out.(row + x) <-
        ((4 * c.(row + x))
        + c.(row + left)
        + c.(row + right)
        + c.(up + x)
        + c.(down + x))
        / 8
    done
  done;
  Image.of_pixels ~width:w ~height:h out

(* Work units per frame for profiling: one unit per photosite for the
   gain pass plus five for the interpolation pass. *)
let work ~width ~height = width * height * 6
