(* Architecture exploration of the face recognition system: the
   II-III-IV iteration loop of the paper's Section 2, grading candidate
   HW/SW partitions by performance, silicon usage and power, then
   comparing the paper's two implementations — "static" all-HW versus the
   reconfigurable FPGA mapping.

   Run with: dune exec examples/exploration.exe *)

open Symbad_core

let () =
  let cs = Face_app.case_study Face_app.smoke_workload in
  let graph = Lazy.force cs.graph in
  let profile = (Lazy.force cs.level1).Level1.profile in
  Format.printf "profiling ranking (level-1 execution):@.";
  List.iteri
    (fun i (task, units) ->
      if i < 8 then Format.printf "  %2d. %-10s %8d units@." (i + 1) task units)
    (Symbad_tlm.Annotation.Profile.ranking profile);

  Format.printf "@.sweep of HW-set sizes (transformation 2 applied 0..6 times):@.";
  let grades =
    Explore.sweep_hw_sets ~profile ~pinned_sw:Face_app.pinned_sw
      ~max_hw:6 graph
  in
  List.iter (fun g -> Format.printf "  %a@." Explore.pp_grade g) grades;
  Format.printf "@.Pareto-optimal points:@.";
  List.iter (fun g -> Format.printf "  %a@." Explore.pp_grade g)
    (Explore.pareto grades);

  (* static vs reconfigurable: the paper's first implementation followed
     a "static approach where all HW resources ... were assumed to be
     simultaneously available" — one big FPGA configuration holding both
     DISTANCE and ROOT, loaded once.  The new flow splits them into two
     contexts, shrinking the fabric at the cost of per-frame
     reconfigurations. *)
  Format.printf "@.static (one configuration) vs reconfigurable (two contexts):@.";
  let mapping2 = Lazy.force cs.mapping2 in
  let static =
    (* the single configuration needs a fabric big enough for both *)
    let config =
      { Level3.default_config with Level3.fpga_capacity = 2000 }
    in
    Explore.grade ~config ~label:"static" graph
      (Mapping.refine_to_fpga mapping2
         [ ("DISTANCE", "config_all"); ("ROOT", "config_all") ])
  in
  let reconf =
    Explore.grade ~label:"reconfig" graph
      (Lazy.force cs.mapping3)
  in
  Format.printf "  %a@.  %a@." Explore.pp_grade static Explore.pp_grade reconf;
  let speed_penalty =
    float_of_int reconf.Explore.latency_ns
    /. float_of_int static.Explore.latency_ns
  in
  let area_saving =
    1.
    -. (float_of_int reconf.Explore.area /. float_of_int static.Explore.area)
  in
  Format.printf
    "  reconfigurable: %.1f%% smaller silicon for %.2fx the latency@."
    (100. *. area_saving) speed_penalty
