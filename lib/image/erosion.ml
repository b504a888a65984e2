(* Morphological erosion (3x3 minimum filter): the denoising stage that
   follows demosaicing in the case-study pipeline.  Erosion suppresses
   isolated bright sensor noise before gradient computation. *)

let apply img =
  let w = Image.width img and h = Image.height img in
  let out = Image.create ~width:w ~height:h in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let m = ref 255 in
      for dy = -1 to 1 do
        for dx = -1 to 1 do
          let v = Image.get_clamped img (x + dx) (y + dy) in
          if v < !m then m := v
        done
      done;
      Image.set out x y !m
    done
  done;
  out

(* Dual operator, used by tests to check the morphological laws. *)
let dilate img =
  let w = Image.width img and h = Image.height img in
  let out = Image.create ~width:w ~height:h in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let m = ref 0 in
      for dy = -1 to 1 do
        for dx = -1 to 1 do
          let v = Image.get_clamped img (x + dx) (y + dy) in
          if v > !m then m := v
        done
      done;
      Image.set out x y !m
    done
  done;
  out

let work ~width ~height = width * height * 9
