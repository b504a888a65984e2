(* Ellipse fitting by image moments.

   The edge map of a face is dominated by the head contour; the first and
   second moments of the edge-pixel cloud give its centre and half-axes.
   The fitted ellipse localises the face for the feature stages
   (CRTBORDER / CRTLINE) regardless of pose translation and scale. *)

type t = {
  cx : float;
  cy : float;
  rx : float;  (* half-axis along x *)
  ry : float;  (* half-axis along y *)
  support : int;  (* number of edge pixels used *)
}

(* Both passes visit the edge pixels in raster order, so the float sums
   accumulate in one fixed order. *)
let fit edge_map =
  let w = Image.width edge_map and h = Image.height edge_map in
  let px = Image.pixels edge_map in
  let n = ref 0 and sx = ref 0 and sy = ref 0 in
  for y = 0 to h - 1 do
    let row = y * w in
    for x = 0 to w - 1 do
      if px.(row + x) > 0 then begin
        incr n;
        sx := !sx + x;
        sy := !sy + y
      end
    done
  done;
  if !n < 16 then None
  else begin
    let nf = float_of_int !n in
    let cx = float_of_int !sx /. nf and cy = float_of_int !sy /. nf in
    let sxx = ref 0. and syy = ref 0. in
    for y = 0 to h - 1 do
      let row = y * w and dy = float_of_int y -. cy in
      for x = 0 to w - 1 do
        if px.(row + x) > 0 then begin
          let dx = float_of_int x -. cx in
          sxx := !sxx +. (dx *. dx);
          syy := !syy +. (dy *. dy)
        end
      done
    done;
    (* For a uniform ellipse ring, E[dx^2] = rx^2 / 2. *)
    let rx = sqrt (2. *. !sxx /. nf) and ry = sqrt (2. *. !syy /. nf) in
    Some { cx; cy; rx = Float.max rx 1.; ry = Float.max ry 1.; support = !n }
  end

(* Canonical digest used in traces (quantised so that timed and untimed
   runs compare equal). *)
let digest e =
  Printf.sprintf "c(%d,%d)r(%d,%d)n%d"
    (int_of_float (e.cx +. 0.5))
    (int_of_float (e.cy +. 0.5))
    (int_of_float (e.rx +. 0.5))
    (int_of_float (e.ry +. 0.5))
    e.support

let pp fmt e =
  Fmt.pf fmt "ellipse c=(%.1f,%.1f) r=(%.1f,%.1f) support=%d" e.cx e.cy e.rx
    e.ry e.support

let work ~width ~height = width * height * 4
