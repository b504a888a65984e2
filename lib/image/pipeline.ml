(* The C reference model: the full recognition pipeline of Figure 2 as a
   plain composition of functions.  The level-1 SystemC-style model is
   checked against the traces this produces, and every later level against
   its predecessor.

   Dataflow (stage names as in the paper's Figure 2):

     CAMERA -> BAYER -> EROSION -> EDGE -> ELLIPSE -+-> CRTBORDER ---+
                                                    +-> CRTLINE -> CALCLINE
     DATABASE --------------------------------+          |          |
                                              v          v          v
                                            CALCDIST./DISTANCE -> ROOT -> WINNER
*)

let border_bins = 16
let line_count = 8
let feature_dim = border_bins + (2 * line_count)

type stage_outputs = {
  raw : Image.t;  (* camera (Bayer mosaic) *)
  gray : Image.t;  (* bayer *)
  eroded : Image.t;  (* erosion *)
  edges : Image.t;  (* edge *)
  ellipse : Ellipse.t;  (* ellipse (fallback centre if fit fails) *)
  border : int array;  (* crtborder *)
  lines : Line.scan;  (* crtline *)
  line_features : int array;  (* calcline *)
  features : int array;  (* concatenated signature *)
}

let fallback_ellipse img =
  let w = float_of_int (Image.width img) and h = float_of_int (Image.height img)
  in
  {
    Ellipse.cx = w /. 2.;
    cy = h /. 2.;
    rx = w /. 3.;
    ry = h /. 2.5;
    support = 0;
  }

let camera ?(size = 64) ~identity ~pose () =
  Bayer.mosaic (Facegen.frame ~size ~identity ~pose ())

let extract raw =
  let gray = Bayer.demosaic raw in
  let eroded = Erosion.apply gray in
  let edges = Edge.detect eroded in
  let ellipse =
    match Ellipse.fit edges with
    | Some e -> e
    | None -> fallback_ellipse edges
  in
  let border = Border.profile ~bins:border_bins edges ellipse in
  let lines = Line.create_lines ~n:line_count eroded ellipse in
  let line_features = Line.calc_features eroded ellipse lines in
  let features = Array.append border line_features in
  { raw; gray; eroded; edges; ellipse; border; lines; line_features; features }

let features_of_frame raw = (extract raw).features

(* CALCDIST / DISTANCE / ROOT: distance of a probe signature to every
   database entry. *)
let distances db features =
  List.map
    (fun (e : Database.entry) ->
      let d2 = Distance.squared features e.Database.features in
      (e.Database.identity, Root.isqrt d2))
    (Database.entries db)

let recognize db raw = Winner.select (distances db (features_of_frame raw))

(* Enrollment: the database of [identities] identities, each enrolled from
   its frontal pose (pose 0). *)
let enroll ?(size = 64) ~identities () =
  let entry identity =
    let raw = camera ~size ~identity ~pose:0 () in
    { Database.identity; features = features_of_frame raw }
  in
  Database.create ~dim:feature_dim (List.init identities entry)

(* Per-stage work units for one frame, feeding the profiling/annotation
   machinery.  Indexed by the Figure 2 module names. *)
let stage_work ~size =
  let width = size and height = size in
  [
    ("CAMERA", width * height);
    ("BAYER", Bayer.work ~width ~height);
    ("EROSION", Erosion.work ~width ~height);
    ("EDGE", Edge.work ~width ~height);
    ("ELLIPSE", Ellipse.work ~width ~height);
    ("CRTBORDER", Border.work ~width ~height ~bins:border_bins);
    ("CRTLINE", line_count * 4);
    ("CALCLINE", Line.work ~width ~height ~n:line_count);
    ("CALCDIST", feature_dim);
    ("DISTANCE", Distance.work ~dim:feature_dim);
    ("ROOT", Root.work ~value:65535);
    ("WINNER", Winner.work ~candidates:20);
    ("DATABASE", feature_dim);
  ]
