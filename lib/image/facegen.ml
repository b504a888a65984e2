(* Synthetic face generator — the stand-in for the low-resolution CMOS
   camera and its human subjects.

   An identity is a deterministic set of facial geometry parameters drawn
   from the identity number; a pose perturbs that geometry (translation,
   scale, brightness, sensor noise).  Faces are rendered as anti-aliased
   grayscale ellipses and bars, which gives the downstream pipeline
   (erosion, edge detection, ellipse fit, border/line features) realistic
   structure to work on. *)

type identity = {
  id : int;
  face_rx : float;  (* face half-axes, fraction of image *)
  face_ry : float;
  eye_dx : float;  (* eye offset from centre *)
  eye_dy : float;
  eye_r : float;
  mouth_w : float;
  mouth_y : float;
  nose_len : float;
  brow_drop : float;  (* brow vertical position *)
  skin : int;  (* base gray level of the face *)
}

type pose = {
  pose_id : int;
  dx : float;  (* translation, fraction of image *)
  dy : float;
  scale : float;
  brightness : int;
  noise_amp : float;
}

let identity id =
  let rng = Rng.create ((id * 2654435761) + 1) in
  let range lo hi = lo +. (Rng.float rng *. (hi -. lo)) in
  {
    id;
    face_rx = range 0.28 0.38;
    face_ry = range 0.36 0.46;
    eye_dx = range 0.10 0.16;
    eye_dy = range 0.08 0.14;
    eye_r = range 0.025 0.05;
    mouth_w = range 0.10 0.20;
    mouth_y = range 0.16 0.24;
    nose_len = range 0.08 0.14;
    brow_drop = range 0.14 0.20;
    skin = 150 + Rng.int rng 60;
  }

let frontal_pose = {
  pose_id = 0;
  dx = 0.;
  dy = 0.;
  scale = 1.;
  brightness = 0;
  noise_amp = 0.;
}

let pose pose_id =
  if pose_id = 0 then frontal_pose
  else begin
    let rng = Rng.create ((pose_id * 40503) + 7) in
    let range lo hi = lo +. (Rng.float rng *. (hi -. lo)) in
    {
      pose_id;
      dx = range (-0.05) 0.05;
      dy = range (-0.05) 0.05;
      scale = range 0.9 1.1;
      brightness = Rng.int rng 30 - 15;
      noise_amp = range 2.0 6.0;
    }
  end

(* The drawing primitives paint into a [size] x [size] row-major pixel
   array; [level] is in [0, 255].

   Smooth-edged ellipse: full intensity inside, linear falloff over about
   one pixel at the rim (d <= 1.15).  Since d = nx^2 + ny^2 >= ny^2, a
   row whose ny^2 exceeds 1.15 holds no pixel of it and is skipped. *)
let draw_ellipse px ~size ~cx ~cy ~rx ~ry ~level =
  for y = 0 to size - 1 do
    let ny = (float_of_int y -. cy) /. ry in
    let ny2 = ny *. ny in
    if ny2 <= 1.15 then
      for x = 0 to size - 1 do
        let nx = (float_of_int x -. cx) /. rx in
        let d = (nx *. nx) +. ny2 in
        let i = (y * size) + x in
        if d <= 1.0 then px.(i) <- level
        else if d <= 1.15 then begin
          let blend = (1.15 -. d) /. 0.15 in
          let bg = px.(i) in
          let v =
            int_of_float
              ((blend *. float_of_int level)
              +. ((1. -. blend) *. float_of_int bg))
          in
          px.(i) <- Image.clamp v
        end
      done
  done

let draw_hbar px ~size ~cx ~cy ~half_w ~half_h ~level =
  let x0 = int_of_float (cx -. half_w) and x1 = int_of_float (cx +. half_w) in
  let y0 = int_of_float (cy -. half_h) and y1 = int_of_float (cy +. half_h) in
  for y = Int.max 0 y0 to Int.min (size - 1) y1 do
    for x = Int.max 0 x0 to Int.min (size - 1) x1 do
      px.((y * size) + x) <- level
    done
  done

let render ~size ident pose =
  let px = Array.make (size * size) 0 in
  let s = float_of_int size in
  (* background: mild vertical gradient, like an indoor scene *)
  for y = 0 to size - 1 do
    Array.fill px (y * size) size (40 + (y * 20 / size))
  done;
  let cx = (0.5 +. pose.dx) *. s and cy = (0.5 +. pose.dy) *. s in
  let sc = pose.scale *. s in
  let skin = Image.clamp (ident.skin + pose.brightness) in
  (* head *)
  draw_ellipse px ~size ~cx ~cy ~rx:(ident.face_rx *. sc)
    ~ry:(ident.face_ry *. sc) ~level:skin;
  (* eyes *)
  let eye_y = cy -. (ident.eye_dy *. sc) in
  let eye_off = ident.eye_dx *. sc in
  let eye_r = ident.eye_r *. sc in
  draw_ellipse px ~size ~cx:(cx -. eye_off) ~cy:eye_y ~rx:eye_r ~ry:eye_r
    ~level:30;
  draw_ellipse px ~size ~cx:(cx +. eye_off) ~cy:eye_y ~rx:eye_r ~ry:eye_r
    ~level:30;
  (* brows *)
  let brow_y = cy -. (ident.brow_drop *. sc) in
  draw_hbar px ~size ~cx:(cx -. eye_off) ~cy:brow_y ~half_w:(eye_r *. 1.4)
    ~half_h:1.0 ~level:50;
  draw_hbar px ~size ~cx:(cx +. eye_off) ~cy:brow_y ~half_w:(eye_r *. 1.4)
    ~half_h:1.0 ~level:50;
  (* nose *)
  draw_hbar px ~size ~cx ~cy:(cy +. (ident.nose_len *. sc *. 0.5))
    ~half_w:1.0 ~half_h:(ident.nose_len *. sc *. 0.5)
    ~level:(Image.clamp (skin - 40));
  (* mouth *)
  draw_hbar px ~size ~cx ~cy:(cy +. (ident.mouth_y *. sc))
    ~half_w:(ident.mouth_w *. sc) ~half_h:1.5 ~level:60;
  (* sensor noise, drawn in raster order *)
  if pose.noise_amp > 0. then begin
    let rng = Rng.create ((ident.id * 1009) + (pose.pose_id * 13) + 3) in
    for i = 0 to (size * size) - 1 do
      let n = int_of_float (Rng.noise rng *. pose.noise_amp) in
      px.(i) <- Image.clamp (px.(i) + n)
    done
  end;
  Image.of_pixels ~width:size ~height:size px

let frame ?(size = 64) ~identity:id ~pose:p () = render ~size (identity id) (pose p)
