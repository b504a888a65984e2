(* The full case study: the Figure 2 face recognition system taken
   through all four levels of the Symbad flow, with every verification
   step.  This is the programmatic version of Section 4 of the paper.

   Run with: dune exec examples/face_recognition.exe [-- --full] *)

open Symbad_core

let () =
  let full = Array.exists (fun a -> a = "--full") Sys.argv in
  let workload =
    if full then Face_app.default_workload else Face_app.smoke_workload
  in
  Format.printf "=== Symbad flow: face recognition (%d frames) ===@.@."
    (List.length workload.Face_app.frames);
  let report = Flow.run ~workload () in
  Format.printf "%a@." Flow.pp report;

  (* recognition quality of the underlying pipeline *)
  let cs = Face_app.case_study workload in
  let db = Lazy.force cs.database in
  let quality = Symbad_image.Metrics.evaluate ~size:workload.Face_app.size ~poses:3 db in
  Format.printf "recognition quality: %a@.@." Symbad_image.Metrics.pp quality;

  (* what the final mapping looks like *)
  Format.printf "final (level 3) mapping:@.%a@." Mapping.pp
    report.Flow.mapping;

  (* show the verification flow catching a seeded reconfiguration bug:
     the SW "forgets" to load config2 before calling ROOT *)
  Format.printf "--- seeded bug: missing load before ROOT ---@.";
  let mapping = report.Flow.mapping in
  let buggy_sw =
    Level3.instrumented_program ~omit_load_for:[ "ROOT" ]
      (Lazy.force cs.graph) mapping
  in
  let info = Level3.config_info_of mapping in
  (match Symbad_symbc.Check.check info buggy_sw with
  | Symbad_symbc.Check.Inconsistent cex ->
      Format.printf "SymbC found the bug: %s() with FPGA state %s@."
        cex.Symbad_symbc.Check.failing_call
        (Symbad_symbc.Check.fpga_state_to_string
           cex.Symbad_symbc.Check.state_at_call)
  | Symbad_symbc.Check.Consistent _ ->
      Format.printf "unexpected: buggy SW passed SymbC@.");
  exit (if report.Flow.all_passed then 0 else 1)
