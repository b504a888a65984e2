(* Tests for the image-processing substrate (the C reference model). *)

open Symbad_image

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Image --- *)

let image_get_set () =
  let img = Image.create ~width:4 ~height:3 in
  Image.set img 2 1 200;
  check "get" 200 (Image.get img 2 1);
  check "others zero" 0 (Image.get img 0 0);
  Image.set img 0 0 999;
  check "clamped high" 255 (Image.get img 0 0);
  Image.set img 0 0 (-5);
  check "clamped low" 0 (Image.get img 0 0)

let image_border_clamp () =
  let img = Image.create ~width:2 ~height:2 in
  Image.set img 0 0 7;
  check "clamped coords" 7 (Image.get_clamped img (-5) (-5));
  Image.set img 1 1 9;
  check "clamped coords high" 9 (Image.get_clamped img 10 10)

let image_stats () =
  let img = Image.create ~width:2 ~height:2 in
  Image.fill img 10;
  Image.set img 0 0 30;
  check "mean" 15 (Image.mean img);
  check "count above" 1 (Image.count_above img 20);
  let h = Image.histogram img in
  check "histogram" 3 h.(10);
  check "histogram peak" 1 h.(30)

let image_digest_distinguishes () =
  let a = Image.create ~width:4 ~height:4 in
  let b = Image.create ~width:4 ~height:4 in
  Image.set b 3 3 1;
  check_bool "digests differ" false (Image.digest a = Image.digest b);
  check_bool "digest stable" true (Image.digest a = Image.digest a)

(* --- Facegen determinism and identity separation --- *)

let facegen_deterministic () =
  let f1 = Facegen.frame ~identity:3 ~pose:2 () in
  let f2 = Facegen.frame ~identity:3 ~pose:2 () in
  check_bool "identical" true (Image.equal f1 f2)

let facegen_identities_differ () =
  let f1 = Facegen.frame ~identity:1 ~pose:0 () in
  let f2 = Facegen.frame ~identity:2 ~pose:0 () in
  check_bool "different faces" false (Image.equal f1 f2)

let facegen_poses_differ () =
  let f1 = Facegen.frame ~identity:1 ~pose:1 () in
  let f2 = Facegen.frame ~identity:1 ~pose:2 () in
  check_bool "different poses" false (Image.equal f1 f2)

(* --- Bayer --- *)

let bayer_roundtrip_close () =
  let scene = Facegen.frame ~identity:0 ~pose:0 () in
  let recon = Bayer.demosaic (Bayer.mosaic scene) in
  (* mean absolute error should be small: gains are undone exactly and
     only smoothing remains *)
  let total = ref 0 in
  for y = 0 to Image.height scene - 1 do
    for x = 0 to Image.width scene - 1 do
      total := !total + abs (Image.get scene x y - Image.get recon x y)
    done
  done;
  let mae = !total / (Image.width scene * Image.height scene) in
  check_bool "mae < 8" true (mae < 8)

let bayer_pattern () =
  Alcotest.(check bool) "rggb" true
    (Bayer.channel_at 0 0 = Bayer.R
    && Bayer.channel_at 1 0 = Bayer.G
    && Bayer.channel_at 0 1 = Bayer.G
    && Bayer.channel_at 1 1 = Bayer.B)

(* --- Erosion: morphological laws --- *)

let erosion_antiextensive () =
  let img = Facegen.frame ~identity:4 ~pose:1 () in
  let e = Erosion.apply img in
  let ok = ref true in
  for y = 0 to Image.height img - 1 do
    for x = 0 to Image.width img - 1 do
      if Image.get e x y > Image.get img x y then ok := false
    done
  done;
  check_bool "erosion <= original" true !ok

let erosion_constant_invariant () =
  let img = Image.create ~width:8 ~height:8 in
  Image.fill img 77;
  check_bool "erosion of constant is constant" true
    (Image.equal img (Erosion.apply img))

(* --- Edge --- *)

let edge_flat_image_no_edges () =
  let img = Image.create ~width:16 ~height:16 in
  Image.fill img 100;
  check "no edges" 0 (Image.count_above (Edge.detect img) 0)

let edge_step_detected () =
  let img = Image.create ~width:16 ~height:16 in
  for y = 0 to 15 do
    for x = 8 to 15 do
      Image.set img x y 200
    done
  done;
  check_bool "step edge found" true
    (Image.count_above (Edge.detect img) 0 > 10)

let edge_binary_output () =
  let img = Facegen.frame ~identity:5 ~pose:1 () in
  let e = Edge.detect img in
  let ok = ref true in
  for y = 0 to Image.height e - 1 do
    for x = 0 to Image.width e - 1 do
      let v = Image.get e x y in
      if v <> 0 && v <> 255 then ok := false
    done
  done;
  check_bool "binary" true !ok

(* --- Ellipse --- *)

let ellipse_fit_centered_face () =
  let img = Facegen.frame ~size:64 ~identity:2 ~pose:0 () in
  let edges = Edge.detect (Erosion.apply (Bayer.demosaic (Bayer.mosaic img))) in
  ignore img;
  match Ellipse.fit edges with
  | None -> Alcotest.fail "expected a fit"
  | Some e ->
      check_bool "centre near middle" true
        (abs_float (e.Ellipse.cx -. 32.) < 8. && abs_float (e.Ellipse.cy -. 32.) < 8.);
      check_bool "support" true (e.Ellipse.support > 50)

let ellipse_fit_requires_support () =
  let img = Image.create ~width:32 ~height:32 in
  Alcotest.(check bool) "no fit on empty" true (Ellipse.fit img = None)

(* --- Root --- *)

let root_exhaustive_16bit_sample () =
  for n = 0 to 4096 do
    let r = Root.isqrt n in
    if not (r * r <= n && n < (r + 1) * (r + 1)) then
      Alcotest.failf "isqrt %d = %d" n r
  done

let root_rejects_negative () =
  check_bool "raises" true
    (try
       ignore (Root.isqrt (-1));
       false
     with Invalid_argument _ -> true)

(* --- Distance / Winner --- *)

let distance_properties () =
  let a = [| 1; 2; 3 |] and b = [| 4; 6; 3 |] in
  check "ssd" 25 (Distance.squared a b);
  check "identity" 0 (Distance.squared a a);
  check "symmetric" (Distance.squared a b) (Distance.squared b a)

let winner_selects_min () =
  let (Winner.Match { identity; distance }) =
    Winner.select [ (0, 10); (1, 3); (2, 7) ]
  in
  check "id" 1 identity;
  check "distance" 3 distance

(* --- Database --- *)

let database_rejects_dim_mismatch () =
  check_bool "raises" true
    (try
       ignore
         (Database.create ~dim:2
            [ { Database.identity = 0; features = [| 1 |] } ]);
       false
     with Invalid_argument _ -> true)

(* --- Pipeline & metrics --- *)

let pipeline_feature_dim () =
  let raw = Pipeline.camera ~identity:0 ~pose:0 () in
  check "feature dim" Pipeline.feature_dim
    (Array.length (Pipeline.features_of_frame raw))

let pipeline_recognises_enrolled_pose () =
  let db = Pipeline.enroll ~identities:5 () in
  let raw = Pipeline.camera ~identity:3 ~pose:0 () in
  let (Winner.Match { identity; distance }) = Pipeline.recognize db raw in
  check "identity" 3 identity;
  check "zero distance on enrolled frame" 0 distance

let pipeline_accuracy_above_chance () =
  let db = Pipeline.enroll ~identities:10 () in
  let r = Metrics.evaluate ~poses:3 db in
  (* chance is 10%; the pipeline must do far better *)
  check_bool "accuracy > 50%" true (r.Metrics.accuracy > 0.5);
  check "trials" 30 r.Metrics.trials

(* --- qcheck properties --- *)

let qcheck_isqrt_correct =
  QCheck.Test.make ~name:"isqrt bounds" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun n ->
      let r = Root.isqrt n in
      r * r <= n && n < (r + 1) * (r + 1))

let qcheck_distance_nonneg =
  QCheck.Test.make ~name:"distance nonnegative and zero iff equal" ~count:200
    QCheck.(pair (array_of_size (Gen.return 8) (int_bound 255))
              (array_of_size (Gen.return 8) (int_bound 255)))
    (fun (a, b) ->
      let d = Distance.squared a b in
      d >= 0 && (d = 0) = (a = b))

let qcheck_border_profile_wellformed =
  QCheck.Test.make ~name:"border profile nonnegative and sized" ~count:20
    QCheck.(pair (int_bound 19) (int_bound 9))
    (fun (identity, pose) ->
      let raw = Pipeline.camera ~size:32 ~identity ~pose () in
      let s = Pipeline.extract raw in
      let border = s.Pipeline.border in
      Array.length border = Pipeline.border_bins
      && Array.for_all (fun x -> x >= 0) border)

let qcheck_rng_deterministic =
  QCheck.Test.make ~name:"rng streams reproducible" ~count:100 QCheck.int
    (fun seed ->
      let a = Rng.create seed and b = Rng.create seed in
      List.for_all (fun _ -> Rng.int a 1000 = Rng.int b 1000)
        (List.init 20 (fun i -> i)))

(* --- The per-pixel reference kernels ---

   The kernels as first written, one accessor call per pixel and per
   stencil tap, kept as the specification of the array kernels: every
   pixel, digest, ellipse and feature must come out the same. *)

module Ref = struct
  let gain x y =
    match Bayer.channel_at x y with Bayer.R -> 205 | G -> 256 | B -> 230

  let mosaic img =
    let w = Image.width img and h = Image.height img in
    let out = Image.create ~width:w ~height:h in
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        Image.set out x y (Image.get img x y * gain x y / 256)
      done
    done;
    out

  let demosaic raw =
    let w = Image.width raw and h = Image.height raw in
    let corrected = Image.create ~width:w ~height:h in
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        Image.set corrected x y (Image.get raw x y * 256 / gain x y)
      done
    done;
    let out = Image.create ~width:w ~height:h in
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        let c = Image.get_clamped corrected in
        let v =
          ((4 * c x y) + c (x - 1) y + c (x + 1) y + c x (y - 1) + c x (y + 1))
          / 8
        in
        Image.set out x y v
      done
    done;
    out

  (* the minimum over each pixel's 3x3 window *)
  let erosion img =
    let w = Image.width img and h = Image.height img in
    let out = Image.create ~width:w ~height:h in
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        let m = ref 255 in
        for dy = -1 to 1 do
          for dx = -1 to 1 do
            m := min !m (Image.get_clamped img (x + dx) (y + dy))
          done
        done;
        Image.set out x y !m
      done
    done;
    out

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

  let edge img =
    let w = Image.width img and h = Image.height img in
    let out = Image.create ~width:w ~height:h in
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        Image.set out x y (if sobel_at img x y / 4 > 40 then 255 else 0)
      done
    done;
    out

  let ellipse_fit edge_map =
    let w = Image.width edge_map and h = Image.height edge_map in
    let n = ref 0 and sx = ref 0 and sy = ref 0 in
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        if Image.get edge_map x y > 0 then begin
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
        for x = 0 to w - 1 do
          if Image.get edge_map x y > 0 then begin
            let dx = float_of_int x -. cx and dy = float_of_int y -. cy in
            sxx := !sxx +. (dx *. dx);
            syy := !syy +. (dy *. dy)
          end
        done
      done;
      let rx = sqrt (2. *. !sxx /. nf) and ry = sqrt (2. *. !syy /. nf) in
      Some
        {
          Ellipse.cx;
          cy;
          rx = Float.max rx 1.;
          ry = Float.max ry 1.;
          support = !n;
        }
    end

  let border_profile ~bins edge_map (e : Ellipse.t) =
    let w = Image.width edge_map and h = Image.height edge_map in
    let max_r = float_of_int (max w h) in
    let scale = (e.Ellipse.rx +. e.Ellipse.ry) /. 2. in
    let pi = 4.0 *. atan 1.0 in
    Array.init bins (fun b ->
        let angle = 2. *. pi *. float_of_int b /. float_of_int bins in
        let dx = cos angle and dy = sin angle in
        let rec march r last =
          if r > max_r then last
          else begin
            let x = int_of_float (e.Ellipse.cx +. (r *. dx)) in
            let y = int_of_float (e.Ellipse.cy +. (r *. dy)) in
            if x < 0 || x >= w || y < 0 || y >= h then last
            else
              let last = if Image.get edge_map x y > 0 then r else last in
              march (r +. 1.) last
          end
        in
        int_of_float (march 1. 0. /. scale *. 64.))

  let calc_features img (e : Ellipse.t) (s : Line.scan) =
    let w = Image.width img and h = Image.height img in
    let clip lo hi v = if v < lo then lo else if v > hi then hi else v in
    let x0 = clip 0 (w - 1) (int_of_float (e.Ellipse.cx -. e.Ellipse.rx)) in
    let x1 = clip 0 (w - 1) (int_of_float (e.Ellipse.cx +. e.Ellipse.rx)) in
    let y0 = clip 0 (h - 1) (int_of_float (e.Ellipse.cy -. e.Ellipse.ry)) in
    let y1 = clip 0 (h - 1) (int_of_float (e.Ellipse.cy +. e.Ellipse.ry)) in
    let row_mean y =
      let sum = ref 0 in
      for x = x0 to x1 do
        sum := !sum + Image.get img x y
      done;
      !sum / max 1 (x1 - x0 + 1)
    in
    let col_mean x =
      let sum = ref 0 in
      for y = y0 to y1 do
        sum := !sum + Image.get img x y
      done;
      !sum / max 1 (y1 - y0 + 1)
    in
    Array.append (Array.map row_mean s.Line.rows) (Array.map col_mean s.Line.cols)

  let digest img =
    let w = Image.width img and h = Image.height img in
    let fnv = ref 0xcbf29ce484222325L and sum = ref 0 in
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        let p = Image.get img x y in
        sum := !sum + p;
        fnv := Int64.mul (Int64.logxor !fnv (Int64.of_int p)) 0x100000001b3L
      done
    done;
    Printf.sprintf "%dx%d/m%d/%Lx" w h (!sum / (w * h)) !fnv

  (* xorshift64-star over boxed int64 state *)
  let rng_stream seed n =
    let s = ref (if seed = 0 then 0x9E3779B97F4A7C15L else Int64.of_int seed) in
    List.init n (fun _ ->
        let x = !s in
        let x = Int64.logxor x (Int64.shift_left x 13) in
        let x = Int64.logxor x (Int64.shift_right_logical x 7) in
        let x = Int64.logxor x (Int64.shift_left x 17) in
        s := x;
        Int64.mul x 0x2545F4914F6CDD1DL)
end

(* A random image of 1..70 x 1..70 pixels (one-pixel rows and columns
   drawn often: their clamped neighbours are the edge case), either
   full-range or a sparse 0/255 map like an edge map, and a random
   ellipse that may lie partly or wholly off the image. *)
let arb_image_and_ellipse =
  let open QCheck.Gen in
  let side = oneof [ return 1; return 2; int_range 1 70 ] in
  let gen =
    side >>= fun width ->
    side >>= fun height ->
    oneofl
      [ int_bound 255; map (fun r -> if r = 0 then 255 else 0) (int_bound 5) ]
    >>= fun pixel ->
    array_repeat (width * height) pixel >>= fun pixels ->
    let coord = float_range (-10.) 80. and radius = float_range 1. 40. in
    map
      (fun (cx, cy, rx, ry) ->
        let img = Image.create ~width ~height in
        Array.iteri (fun i v -> Image.set img (i mod width) (i / width) v) pixels;
        (img, { Ellipse.cx; cy; rx; ry; support = 0 }))
      (quad coord coord radius radius)
  in
  QCheck.make gen ~print:(fun (img, e) ->
      Fmt.str "%a, %a" Image.pp img Ellipse.pp e)

let qcheck_kernels_match_reference =
  QCheck.Test.make ~name:"array kernels equal the per-pixel reference"
    ~count:500 arb_image_and_ellipse (fun (img, e) ->
      let before = Image.copy img in
      let same_image name a b =
        Image.equal a b || QCheck.Test.fail_reportf "%s differs" name
      in
      let same name a b = a = b || QCheck.Test.fail_reportf "%s differs" name in
      let edges = Ref.edge img in
      let edges_before = Image.copy edges in
      let fitted =
        Option.value (Ref.ellipse_fit edges)
          ~default:(Pipeline.fallback_ellipse edges)
      in
      same_image "mosaic" (Bayer.mosaic img) (Ref.mosaic img)
      && same_image "demosaic" (Bayer.demosaic img) (Ref.demosaic img)
      && same_image "erosion" (Erosion.apply img) (Ref.erosion img)
      && same_image "edge" (Edge.detect img) (Ref.edge img)
      && same "ellipse fit of the image" (Ellipse.fit img) (Ref.ellipse_fit img)
      && same "ellipse fit of its edges" (Ellipse.fit edges)
           (Ref.ellipse_fit edges)
      && List.for_all
           (fun e ->
             same "border profile"
               (Border.profile ~bins:16 edges e)
               (Ref.border_profile ~bins:16 edges e)
             &&
             let scan = Line.create_lines ~n:8 img e in
             same "line features"
               (Line.calc_features img e scan)
               (Ref.calc_features img e scan))
           [ fitted; e ]
      && same "digest" (Image.digest img) (Ref.digest img)
      && same_image "input untouched" img before
      && same_image "edge map untouched" edges edges_before)

let qcheck_rng_matches_reference =
  QCheck.Test.make ~name:"rng stream equals the int64 reference" ~count:100
    QCheck.(oneof [ always 0; int ])
    (fun seed ->
      let r = Rng.create seed in
      List.for_all (fun v -> Rng.next r = v) (Ref.rng_stream seed 40))

let suite =
  [
    Alcotest.test_case "image get/set/clamp" `Quick image_get_set;
    Alcotest.test_case "image border clamp" `Quick image_border_clamp;
    Alcotest.test_case "image statistics" `Quick image_stats;
    Alcotest.test_case "image digest" `Quick image_digest_distinguishes;
    Alcotest.test_case "facegen deterministic" `Quick facegen_deterministic;
    Alcotest.test_case "facegen identities differ" `Quick
      facegen_identities_differ;
    Alcotest.test_case "facegen poses differ" `Quick facegen_poses_differ;
    Alcotest.test_case "bayer mosaic/demosaic roundtrip" `Quick
      bayer_roundtrip_close;
    Alcotest.test_case "bayer RGGB pattern" `Quick bayer_pattern;
    Alcotest.test_case "erosion anti-extensive" `Quick erosion_antiextensive;
    Alcotest.test_case "erosion constant invariant" `Quick
      erosion_constant_invariant;
    Alcotest.test_case "edge: flat image" `Quick edge_flat_image_no_edges;
    Alcotest.test_case "edge: step detected" `Quick edge_step_detected;
    Alcotest.test_case "edge: binary output" `Quick edge_binary_output;
    Alcotest.test_case "ellipse fit on face" `Quick ellipse_fit_centered_face;
    Alcotest.test_case "ellipse fit needs support" `Quick
      ellipse_fit_requires_support;
    Alcotest.test_case "isqrt exhaustive sample" `Quick
      root_exhaustive_16bit_sample;
    Alcotest.test_case "isqrt rejects negative" `Quick root_rejects_negative;
    Alcotest.test_case "distance SSD" `Quick distance_properties;
    Alcotest.test_case "winner argmin" `Quick winner_selects_min;
    Alcotest.test_case "database dim check" `Quick database_rejects_dim_mismatch;
    Alcotest.test_case "pipeline feature dimension" `Quick pipeline_feature_dim;
    Alcotest.test_case "pipeline recognises enrolled pose" `Quick
      pipeline_recognises_enrolled_pose;
    Alcotest.test_case "pipeline accuracy above chance" `Slow
      pipeline_accuracy_above_chance;
    QCheck_alcotest.to_alcotest qcheck_isqrt_correct;
    QCheck_alcotest.to_alcotest qcheck_distance_nonneg;
    QCheck_alcotest.to_alcotest qcheck_border_profile_wellformed;
    QCheck_alcotest.to_alcotest qcheck_rng_deterministic;
    QCheck_alcotest.to_alcotest qcheck_kernels_match_reference;
    QCheck_alcotest.to_alcotest qcheck_rng_matches_reference;
  ]
