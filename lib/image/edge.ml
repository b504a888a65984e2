(* Sobel edge detection with threshold, producing the binary edge map the
   ellipse-fitting and border-feature stages consume. *)

let sobel_at img x y =
  let p = Image.get_clamped img in
  let gx =
    -p (x - 1) (y - 1) + p (x + 1) (y - 1)
    - (2 * p (x - 1) y)
    + (2 * p (x + 1) y)
    - p (x - 1) (y + 1)
    + p (x + 1) (y + 1)
  in
  let gy =
    -p (x - 1) (y - 1)
    - (2 * p x (y - 1))
    - p (x + 1) (y - 1)
    + p (x - 1) (y + 1)
    + (2 * p x (y + 1))
    + p (x + 1) (y + 1)
  in
  abs gx + abs gy

let magnitude img =
  let w = Image.width img and h = Image.height img in
  let out = Image.create ~width:w ~height:h in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      Image.set out x y (sobel_at img x y / 4)
    done
  done;
  out

let detect img =
  let w = Image.width img and h = Image.height img in
  let out = Image.create ~width:w ~height:h in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let m = sobel_at img x y / 4 in
      Image.set out x y (if m > 40 then 255 else 0)
    done
  done;
  out

let work ~width ~height = width * height * 12
