(* A tour of every verification technology in the flow, each shown
   catching a seeded bug and passing the fixed design:

     1. ATPG coverage + memory inspection        (level 1)
     2. LPV deadlock freeness                    (level 1)
     3. LPV timing / FIFO dimensioning           (level 2)
     4. SymbC consistency (product reachability) (level 3)
     5. Model checking + PCC + interface synth   (level 4)

   Run with: dune exec examples/verification_tour.exe *)

module Hdl = Symbad_hdl
module E = Symbad_hdl.Expr
module Mc = Symbad_mc

let banner title = Format.printf "@.--- %s ---@." title

(* 1. ATPG + memory inspection ------------------------------------- *)

let atpg_tour () =
  banner "1. ATPG (Laerte++): coverage-driven tests + memory inspection";
  let model = Symbad_atpg.Models.root () in
  let tests = Symbad_atpg.Genetic_engine.generate model in
  let e = Symbad_atpg.Testbench.evaluate ~engine:"genetic" model tests in
  Format.printf "%a@." Symbad_atpg.Testbench.pp_evaluation e;
  (* the memory-initialisation bug class *)
  let mem, frame =
    Symbad_atpg.Memcheck.accumulator_model ~clears_buffer:false ~cells:4
  in
  ignore (frame [ 10; 20; 30; 40 ]);
  Format.printf "%a" Symbad_atpg.Memcheck.report mem

(* 2. LPV deadlock --------------------------------------------------- *)

let lpv_deadlock_tour () =
  banner "2. LPV: deadlock freeness via the certified cycle search";
  let net = Symbad_lpv.Petri.create () in
  let producer = Symbad_lpv.Petri.add_transition net ~delay:2 () in
  let consumer = Symbad_lpv.Petri.add_transition net ~delay:3 () in
  let data = Symbad_lpv.Petri.add_place net ~tokens:0 "data" in
  let ack = Symbad_lpv.Petri.add_place net ~tokens:0 "ack" in
  Symbad_lpv.Petri.add_post net ~transition:producer ~place:data;
  Symbad_lpv.Petri.add_pre net ~transition:consumer ~place:data;
  Symbad_lpv.Petri.add_post net ~transition:consumer ~place:ack;
  Symbad_lpv.Petri.add_pre net ~transition:producer ~place:ack;
  Format.printf "unprimed ack loop:  %a@." Symbad_lpv.Deadlock.pp_verdict
    (Symbad_lpv.Deadlock.check net);
  (* fix: prime the acknowledgement channel *)
  let fixed = Symbad_lpv.Petri.create () in
  let producer = Symbad_lpv.Petri.add_transition fixed ~delay:2 () in
  let consumer = Symbad_lpv.Petri.add_transition fixed ~delay:3 () in
  let data = Symbad_lpv.Petri.add_place fixed ~tokens:0 "data" in
  let ack = Symbad_lpv.Petri.add_place fixed ~tokens:1 "ack" in
  Symbad_lpv.Petri.add_post fixed ~transition:producer ~place:data;
  Symbad_lpv.Petri.add_pre fixed ~transition:consumer ~place:data;
  Symbad_lpv.Petri.add_post fixed ~transition:consumer ~place:ack;
  Symbad_lpv.Petri.add_pre fixed ~transition:producer ~place:ack;
  Format.printf "primed ack loop:    %a@." Symbad_lpv.Deadlock.pp_verdict
    (Symbad_lpv.Deadlock.check fixed);
  Format.printf "throughput:         %a@." Symbad_lpv.Timing.pp_verdict
    (Symbad_lpv.Timing.min_cycle_ratio fixed)

(* 3. SymbC ----------------------------------------------------------- *)

let symbc_tour () =
  banner "3. SymbC: product reachability";
  let info =
    Symbad_symbc.Config_info.make
      ~fpga_functions:[ "filter"; "transform" ]
      ~configurations:
        [ ("cfgA", [ "filter" ]); ("cfgB", [ "transform" ]) ]
  in
  let buggy =
    Symbad_symbc.Parser.parse
      {| load(cfgA);
         while (*) {
           filter();
           if (*) { load(cfgB); transform(); }
           filter();   // BUG: cfgB may still be loaded
         } |}
  in
  Format.printf "product engine: %a@." Symbad_symbc.Check.pp_verdict
    (Symbad_symbc.Check.check info buggy);
  let fixed =
    Symbad_symbc.Parser.parse
      {| load(cfgA);
         while (*) {
           filter();
           if (*) { load(cfgB); transform(); load(cfgA); }
           filter();
         } |}
  in
  Format.printf "after the fix:  %a@." Symbad_symbc.Check.pp_verdict
    (Symbad_symbc.Check.check info fixed)

(* 4. Model checking + PCC ------------------------------------------- *)

let mc_tour () =
  banner "4. Model checking: seeded FIFO bug, then the proof";
  let buggy = Hdl.Rtl_lib.fifo_ctrl_buggy ~addr_width:2 () in
  let good = Hdl.Rtl_lib.fifo_ctrl ~addr_width:2 () in
  let bound =
    Mc.Prop.make ~name:"count_le_depth"
      (E.ule (E.reg "count") (E.const ~width:3 4))
  in
  List.iter
    (fun (label, nl) ->
      let r = Mc.Engine.check nl bound in
      Format.printf "%-8s %a@." label Mc.Engine.pp_report r)
    [ ("buggy", buggy); ("fixed", good) ];
  (* and a waveform of the overflow for the debugger *)
  let stim =
    List.init 6 (fun _ ->
        [ ("push", Hdl.Bitvec.one ~width:1); ("pop", Hdl.Bitvec.zero ~width:1) ])
  in
  let vcd = Hdl.Vcd.of_simulation buggy stim in
  Format.printf "VCD dump of the overflow: %d bytes (feed to a waveform viewer)@."
    (String.length vcd)

(* 5. Interface synthesis -------------------------------------------- *)

let ifgen_tour () =
  banner "5. Automated interface synthesis with generated checkers";
  let spec =
    Symbad_core.Wrapper_gen.make_spec ~interface_name:"tour" ~data_width:8
      ~depth:2 ()
  in
  let _, props, reports = Symbad_core.Wrapper_gen.synthesize_and_verify spec in
  Format.printf "%d checkers generated from the spec; all proved: %b@."
    (List.length props)
    (Mc.Engine.all_proved reports)

let () =
  atpg_tour ();
  lpv_deadlock_tour ();
  symbc_tour ();
  mc_tour ();
  ifgen_tour ();
  Format.printf "@.tour complete.@."
