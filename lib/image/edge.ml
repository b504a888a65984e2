(* Sobel edge detection with threshold, producing the binary edge map the
   ellipse-fitting and border-feature stages consume. *)

(* Both 3x3 Sobel kernels are separable.  Per row, with the rows above
   and below replicated at the border, each column gets its vertical
   smoothing [smooth] (1 2 1) and difference [diff] (-1 0 1); then
   gx = smooth(x+1) - smooth(x-1) and gy = diff(x-1) + 2 diff(x) +
   diff(x+1), columns replicated.  The magnitude is |gx| + |gy|,
   scaled by 1/4. *)
let detect img =
  let w = Image.width img and h = Image.height img in
  let src = Image.pixels img in
  let out = Array.make (w * h) 0 in
  let smooth = Array.make w 0 and diff = Array.make w 0 in
  for y = 0 to h - 1 do
    let row = y * w in
    let up = if y > 0 then row - w else row
    and down = if y < h - 1 then row + w else row in
    for x = 0 to w - 1 do
      let a = src.(up + x) and b = src.(down + x) in
      smooth.(x) <- a + (2 * src.(row + x)) + b;
      diff.(x) <- b - a
    done;
    for x = 0 to w - 1 do
      let left = if x > 0 then x - 1 else x
      and right = if x < w - 1 then x + 1 else x in
      let gx = smooth.(right) - smooth.(left)
      and gy = diff.(left) + (2 * diff.(x)) + diff.(right) in
      out.(row + x) <- (if (abs gx + abs gy) / 4 > 40 then 255 else 0)
    done
  done;
  Image.of_pixels ~width:w ~height:h out

let work ~width ~height = width * height * 12
