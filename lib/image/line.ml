(* Line features (CRTLINE / CALCLINE).

   CRTLINE selects scan lines across the face box implied by the fitted
   ellipse; CALCLINE integrates the image along each of them.  Horizontal
   scan lines cross the eyes, brows and mouth at identity-dependent
   heights, so the profile of line sums is a cheap appearance signature
   complementary to the contour signature of {!Border}. *)

type scan = { rows : int array; cols : int array }

(* CRTLINE: choose [n] rows and [n] cols uniformly inside the ellipse's
   bounding box (clipped to the image). *)
let create_lines ?(n = 8) img (e : Ellipse.t) =
  if n <= 0 then invalid_arg "Line.create_lines: n";
  let w = Image.width img and h = Image.height img in
  let clip lo hi v = if v < lo then lo else if v > hi then hi else v in
  let y0 = clip 0 (h - 1) (int_of_float (e.Ellipse.cy -. e.Ellipse.ry)) in
  let y1 = clip 0 (h - 1) (int_of_float (e.Ellipse.cy +. e.Ellipse.ry)) in
  let x0 = clip 0 (w - 1) (int_of_float (e.Ellipse.cx -. e.Ellipse.rx)) in
  let x1 = clip 0 (w - 1) (int_of_float (e.Ellipse.cx +. e.Ellipse.rx)) in
  let pick lo hi i = lo + ((hi - lo) * (i + 1) / (n + 1)) in
  {
    rows = Array.init n (pick y0 y1);
    cols = Array.init n (pick x0 x1);
  }

(* CALCLINE: mean gray level along each scan line, restricted to the
   ellipse's horizontal/vertical extent. *)
let calc_features img (e : Ellipse.t) (s : scan) =
  let w = Image.width img and h = Image.height img in
  let px = Image.pixels img in
  let clip lo hi v = if v < lo then lo else if v > hi then hi else v in
  let x0 = clip 0 (w - 1) (int_of_float (e.Ellipse.cx -. e.Ellipse.rx)) in
  let x1 = clip 0 (w - 1) (int_of_float (e.Ellipse.cx +. e.Ellipse.rx)) in
  let y0 = clip 0 (h - 1) (int_of_float (e.Ellipse.cy -. e.Ellipse.ry)) in
  let y1 = clip 0 (h - 1) (int_of_float (e.Ellipse.cy +. e.Ellipse.ry)) in
  let row_mean y =
    let sum = ref 0 in
    for i = (y * w) + x0 to (y * w) + x1 do
      sum := !sum + px.(i)
    done;
    !sum / Int.max 1 (x1 - x0 + 1)
  in
  let col_mean x =
    let sum = ref 0 in
    for y = y0 to y1 do
      sum := !sum + px.((y * w) + x)
    done;
    !sum / Int.max 1 (y1 - y0 + 1)
  in
  Array.append (Array.map row_mean s.rows) (Array.map col_mean s.cols)

let work ~width ~height ~n = n * (width + height)
