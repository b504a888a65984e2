(* The case-study application: the Figure 2 face recognition system.

   Thirteen modules:
     CAMERA -> BAYER -> EROSION -> EDGE -> ELLIPSE
     EDGE/ELLIPSE -> CRTBORDER; EROSION/ELLIPSE -> CRTLINE -> CALCLINE
     CRTBORDER/CALCLINE/DATABASE -> CALCDIST -> DISTANCE -> ROOT -> WINNER

   The same compute functions as the C reference model
   (Symbad_image.Pipeline) run inside the task graph, which is what makes
   the level-by-level trace comparison exact. *)

module I = Symbad_image

type workload = {
  size : int;  (* frame side, pixels *)
  identities : int;  (* database population *)
  frames : (int * int) list;  (* (identity, pose) script for the camera *)
}

(* The scripted camera: frame i shows identity 2i (mod the population)
   in one of the four non-frontal poses. *)
let camera_script ~identities frames =
  List.init frames (fun i -> (i * 2 mod identities, 1 + (i mod 4)))

let default_workload =
  { size = 64; identities = 20; frames = camera_script ~identities:20 8 }

let smoke_workload =
  { size = 32; identities = 6; frames = [ (0, 1); (3, 2); (5, 1) ] }

(* the level-2 real-time requirement: 25 frames/s *)
let deadline_ns = 40_000_000

let db_matrix db =
  Array.of_list
    (List.map (fun (e : I.Database.entry) -> e.I.Database.features)
       (I.Database.entries db))

(* Work-unit models per firing (profiling weights). *)
let work_of_stage w stage = List.assoc stage (I.Pipeline.stage_work ~size:w.size)

let build_graph w db =
  let dbm = db_matrix db in
  let nposes = Array.length dbm in
  let size = w.size in
  let frames = Array.of_list w.frames in
  let t = Task_graph.transform in
  let camera =
    Task_graph.source ~name:"CAMERA" ~outputs:[ "cam_raw" ]
      ~work:(work_of_stage w "CAMERA") (fun i ->
        if i >= Array.length frames then None
        else begin
          let identity, pose = frames.(i) in
          Some [ Token.Frame (I.Pipeline.camera ~size ~identity ~pose ()) ]
        end)
  in
  let database_task =
    Task_graph.source ~name:"DATABASE" ~outputs:[ "db_out" ]
      ~work:(work_of_stage w "DATABASE") (fun i ->
        if i >= Array.length frames then None else Some [ Token.Mat dbm ])
  in
  let bayer =
    t ~name:"BAYER" ~inputs:[ "cam_raw" ] ~outputs:[ "gray" ]
      ~work:(fun _ -> work_of_stage w "BAYER")
      (function
        | [ raw ] -> [ Token.Frame (I.Bayer.demosaic (Token.to_frame raw)) ]
        | _ -> assert false)
  in
  let erosion =
    t ~name:"EROSION" ~inputs:[ "gray" ]
      ~outputs:[ "ero_edge"; "ero_line"; "ero_calc" ]
      ~work:(fun _ -> work_of_stage w "EROSION")
      (function
        | [ gray ] ->
            let e = I.Erosion.apply (Token.to_frame gray) in
            [ Token.Frame e; Token.Frame e; Token.Frame e ]
        | _ -> assert false)
  in
  let edge =
    t ~name:"EDGE" ~inputs:[ "ero_edge" ] ~outputs:[ "edges_ell"; "edges_bord" ]
      ~work:(fun _ -> work_of_stage w "EDGE")
      (function
        | [ ero ] ->
            let e = I.Edge.detect (Token.to_frame ero) in
            [ Token.Frame e; Token.Frame e ]
        | _ -> assert false)
  in
  let ellipse =
    t ~name:"ELLIPSE" ~inputs:[ "edges_ell" ]
      ~outputs:[ "ell_bord"; "ell_line"; "ell_calc" ]
      ~work:(fun _ -> work_of_stage w "ELLIPSE")
      (function
        | [ edges ] ->
            let edges = Token.to_frame edges in
            let e =
              match I.Ellipse.fit edges with
              | Some e -> e
              | None -> I.Pipeline.fallback_ellipse edges
            in
            [ Token.Shape e; Token.Shape e; Token.Shape e ]
        | _ -> assert false)
  in
  let crtborder =
    t ~name:"CRTBORDER" ~inputs:[ "edges_bord"; "ell_bord" ]
      ~outputs:[ "border_vec" ]
      ~work:(fun _ -> work_of_stage w "CRTBORDER")
      (function
        | [ edges; shape ] ->
            [
              Token.Vec
                (I.Border.profile ~bins:I.Pipeline.border_bins
                   (Token.to_frame edges) (Token.to_shape shape));
            ]
        | _ -> assert false)
  in
  let crtline =
    t ~name:"CRTLINE" ~inputs:[ "ero_line"; "ell_line" ] ~outputs:[ "scan" ]
      ~work:(fun _ -> work_of_stage w "CRTLINE")
      (function
        | [ ero; shape ] ->
            [
              Token.Scan
                (I.Line.create_lines ~n:I.Pipeline.line_count
                   (Token.to_frame ero) (Token.to_shape shape));
            ]
        | _ -> assert false)
  in
  let calcline =
    t ~name:"CALCLINE" ~inputs:[ "ero_calc"; "ell_calc"; "scan" ]
      ~outputs:[ "line_vec" ]
      ~work:(fun _ -> work_of_stage w "CALCLINE")
      (function
        | [ ero; shape; scan ] ->
            [
              Token.Vec
                (I.Line.calc_features (Token.to_frame ero)
                   (Token.to_shape shape) (Token.to_scan scan));
            ]
        | _ -> assert false)
  in
  let calcdist =
    t ~name:"CALCDIST" ~inputs:[ "border_vec"; "line_vec"; "db_out" ]
      ~outputs:[ "diffs" ]
      ~work:(fun _ -> work_of_stage w "CALCDIST")
      (function
        | [ border; line; db ] ->
            let probe =
              Array.append (Token.to_vec border) (Token.to_vec line)
            in
            let dbm = Token.to_mat db in
            let diffs =
              Array.map (fun entry -> Array.map2 ( - ) probe entry) dbm
            in
            [ Token.Mat diffs ]
        | _ -> assert false)
  in
  let distance =
    t ~name:"DISTANCE" ~inputs:[ "diffs" ] ~outputs:[ "dist2" ]
      ~work:(fun tokens ->
        match tokens with
        | [ Token.Mat m ] ->
            Array.length m * I.Distance.work ~dim:I.Pipeline.feature_dim
        | _ -> nposes * I.Distance.work ~dim:I.Pipeline.feature_dim)
      (function
        | [ diffs ] ->
            let m = Token.to_mat diffs in
            let zeros = Array.map (fun row -> Array.map (fun _ -> 0) row) m in
            [
              Token.Vec
                (Array.map2 (fun d z -> I.Distance.squared d z) m zeros);
            ]
        | _ -> assert false)
  in
  let root =
    t ~name:"ROOT" ~inputs:[ "dist2" ] ~outputs:[ "dist" ]
      ~work:(fun tokens ->
        match tokens with
        | [ Token.Vec v ] ->
            Array.fold_left (fun acc d -> acc + I.Root.work ~value:d) 0 v
        | _ -> nposes * I.Root.work ~value:65535)
      (function
        | [ d2 ] -> [ Token.Vec (Array.map I.Root.isqrt (Token.to_vec d2)) ]
        | _ -> assert false)
  in
  let winner =
    t ~name:"WINNER" ~inputs:[ "dist" ] ~outputs:[ "result" ]
      ~work:(fun _ -> work_of_stage w "WINNER")
      (function
        | [ d ] ->
            let dists =
              Array.to_list (Array.mapi (fun i x -> (i, x)) (Token.to_vec d))
            in
            [ Token.Verdict (I.Winner.select dists) ]
        | _ -> assert false)
  in
  Task_graph.make ~name:"face_recognition"
    ~tasks:
      [
        camera; database_task; bayer; erosion; edge; ellipse; crtborder;
        crtline; calcline; calcdist; distance; root; winner;
      ]
    ~sinks:[ "result" ]

(* The C reference model: same pipeline, direct function composition, no
   simulation kernel.  Produces a trace with the same stream labels as
   the level-1..3 models, recorded at time zero. *)
let build_reference w db =
  let dbm = db_matrix db in
  let trace = Symbad_sim.Trace.create () in
  let record source label token =
    Symbad_sim.Trace.record trace ~time:Symbad_sim.Time.zero ~source ~label
      (Token.digest token)
  in
  List.iter
    (fun (identity, pose) ->
      let raw = I.Pipeline.camera ~size:w.size ~identity ~pose () in
      record "CAMERA" "cam_raw" (Token.Frame raw);
      record "DATABASE" "db_out" (Token.Mat dbm);
      let s = I.Pipeline.extract raw in
      record "BAYER" "gray" (Token.Frame s.I.Pipeline.gray);
      List.iter
        (fun label -> record "EROSION" label (Token.Frame s.I.Pipeline.eroded))
        [ "ero_edge"; "ero_line"; "ero_calc" ];
      List.iter
        (fun label -> record "EDGE" label (Token.Frame s.I.Pipeline.edges))
        [ "edges_ell"; "edges_bord" ];
      List.iter
        (fun label -> record "ELLIPSE" label (Token.Shape s.I.Pipeline.ellipse))
        [ "ell_bord"; "ell_line"; "ell_calc" ];
      record "CRTBORDER" "border_vec" (Token.Vec s.I.Pipeline.border);
      record "CRTLINE" "scan" (Token.Scan s.I.Pipeline.lines);
      record "CALCLINE" "line_vec" (Token.Vec s.I.Pipeline.line_features);
      let probe = s.I.Pipeline.features in
      let diffs = Array.map (fun entry -> Array.map2 ( - ) probe entry) dbm in
      record "CALCDIST" "diffs" (Token.Mat diffs);
      let d2 =
        Array.map
          (fun d -> I.Distance.squared d (Array.map (fun _ -> 0) d))
          diffs
      in
      record "DISTANCE" "dist2" (Token.Vec d2);
      let d = Array.map I.Root.isqrt d2 in
      record "ROOT" "dist" (Token.Vec d);
      let verdict =
        I.Winner.select (Array.to_list (Array.mapi (fun i x -> (i, x)) d))
      in
      record "WINNER" "result" (Token.Verdict verdict))
    w.frames;
  trace

(* Sources and sinks model the environment and stay in SW. *)
let pinned_sw = [ "CAMERA"; "DATABASE"; "WINNER" ]

(* The mapping choices of the case study: the profile ranking picks the
   heavy image-processing front end, and designer knowledge adds the
   per-database-entry arithmetic (DISTANCE, ROOT) that the paper's team
   chose for hardware and later for the FPGA. *)
let level2_mapping ~profile g =
  let m = Mapping.of_ranking ~pinned_sw ~top_n:4 profile g in
  List.fold_left
    (fun m task -> Mapping.move m task Mapping.Hw)
    m [ "DISTANCE"; "ROOT" ]

(* "modules DISTANCE and ROOT be mapped both into the FPGA ... split into
   two different contexts, named config1 and config2" *)
let level3_refinement = [ ("DISTANCE", "config1"); ("ROOT", "config2") ]

(* The case study, built once.  The database ("flash memory" contents,
   enrolled from frontal poses) feeds both the graph and the reference
   model; each level reads the levels before it, so every part is
   computed at most once, when first forced. *)
type case_study = {
  database : I.Database.t Lazy.t;
  graph : Task_graph.t Lazy.t;
  reference : Symbad_sim.Trace.t Lazy.t;
  level1 : Level1.result Lazy.t;
  mapping2 : Mapping.t Lazy.t;
  mapping3 : Mapping.t Lazy.t;
  level2 : Level2.result Lazy.t;
  level3 : Level3.result Lazy.t;
}

let case_study w =
  let database =
    lazy (I.Pipeline.enroll ~size:w.size ~identities:w.identities ())
  in
  let graph = lazy (build_graph w (Lazy.force database)) in
  let level1 = lazy (Level1.run (Lazy.force graph)) in
  let mapping2 =
    lazy
      (level2_mapping ~profile:(Lazy.force level1).Level1.profile
         (Lazy.force graph))
  in
  let mapping3 =
    lazy (Mapping.refine_to_fpga (Lazy.force mapping2) level3_refinement)
  in
  {
    database;
    graph;
    reference = lazy (build_reference w (Lazy.force database));
    level1;
    mapping2;
    mapping3;
    level2 = lazy (Level2.run (Lazy.force graph) (Lazy.force mapping2));
    level3 = lazy (Level3.run (Lazy.force graph) (Lazy.force mapping3));
  }

let graph w = Lazy.force (case_study w).graph
let reference_trace w = Lazy.force (case_study w).reference
