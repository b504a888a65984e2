(* Morphological erosion (3x3 minimum filter): the denoising stage that
   follows demosaicing in the case-study pipeline.  Erosion suppresses
   isolated bright sensor noise before gradient computation. *)

let min (a : int) b = if a < b then a else b

(* The 3x3 minimum is separable: per row, the minimum of each column's
   three taps (rows replicated at the border), then of three adjacent
   column minima (columns replicated). *)
let apply img =
  let w = Image.width img and h = Image.height img in
  let src = Image.pixels img in
  let out = Array.make (w * h) 0 and col = Array.make w 0 in
  for y = 0 to h - 1 do
    let row = y * w in
    let up = if y > 0 then row - w else row
    and down = if y < h - 1 then row + w else row in
    for x = 0 to w - 1 do
      col.(x) <- min (min src.(up + x) src.(row + x)) src.(down + x)
    done;
    for x = 0 to w - 1 do
      let left = if x > 0 then x - 1 else x
      and right = if x < w - 1 then x + 1 else x in
      out.(row + x) <- min (min col.(left) col.(x)) col.(right)
    done
  done;
  Image.of_pixels ~width:w ~height:h out

let work ~width ~height = width * height * 9
