(* Border features (CRTBORDER): a radial signature of the face contour.

   From the fitted ellipse centre, cast [bins] rays at equal angles and
   record, for each, the distance to the outermost edge pixel, normalised
   by the ellipse scale.  The signature is translation- and largely
   scale-invariant, so it discriminates head shapes across poses. *)

let pi = 4.0 *. atan 1.0

let profile ?(bins = 16) edge_map (e : Ellipse.t) =
  if bins <= 0 then invalid_arg "Border.profile: bins";
  let w = Image.width edge_map and h = Image.height edge_map in
  let px = Image.pixels edge_map in
  let max_r = float_of_int (Int.max w h) in
  let scale = (e.Ellipse.rx +. e.Ellipse.ry) /. 2. in
  Array.init bins (fun b ->
      let angle = 2. *. pi *. float_of_int b /. float_of_int bins in
      let dx = cos angle and dy = sin angle in
      (* march outward, remember the last edge hit *)
      let rec march r last =
        if r > max_r then last
        else begin
          let x = int_of_float (e.Ellipse.cx +. (r *. dx)) in
          let y = int_of_float (e.Ellipse.cy +. (r *. dy)) in
          if x < 0 || x >= w || y < 0 || y >= h then last
          else
            let last = if px.((y * w) + x) > 0 then r else last in
            march (r +. 1.) last
        end
      in
      let dist = march 1. 0. in
      (* normalise to 1/64ths of the ellipse scale *)
      int_of_float (dist /. scale *. 64.))

let work ~width ~height ~bins = bins * max width height
