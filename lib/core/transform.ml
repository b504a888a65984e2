(* The two structural transformations the exploration environment
   automates (Section 4.1):

   Transformation 1 turns the untimed level-1 description into the timed
   TL architecture: group the SW candidates into a single task on the CPU
   model, instantiate the connection resource (bus), connect everything.
   In this codebase the grouping and connection are performed by the
   level-2 runtime, so the transformation materialises as a [design]
   value carrying graph + mapping + platform parameters.

   Transformation 2 incrementally moves one module between the HW and SW
   partitions; profiling and annotation are re-run automatically by
   re-simulation. *)

type design = {
  graph : Task_graph.t;
  mapping : Mapping.t;
  profile : Symbad_tlm.Annotation.Profile.t;
}

(* Transformation 1: from the level-1 (all-SW, untimed) description to a
   timed TL design.  [hw] is the first HW candidate set. *)
let to_timed_tl ~profile ~hw graph =
  let mapping =
    List.fold_left
      (fun m task -> Mapping.move m task Mapping.Hw)
      (Mapping.all_sw graph) hw
  in
  { graph; mapping; profile }

(* Transformation 2a/2b: move one module across the HW/SW boundary. *)
let move_to_hw design task =
  { design with mapping = Mapping.move design.mapping task Mapping.Hw }

let move_to_sw design task =
  { design with mapping = Mapping.move design.mapping task Mapping.Sw }

(* Re-evaluate after a transformation: re-simulate the timed model (this
   re-annotates automatically, because annotation is applied from the
   profile at simulation time), on the default level-2 platform. *)
let evaluate design = Level2.run design.graph design.mapping

(* Convenience: compare the timing effect of moving [task] to HW. *)
let speedup_of_moving_to_hw design task =
  let before = (evaluate design).Level2.latency_ns in
  let after = (evaluate (move_to_hw design task)).Level2.latency_ns in
  float_of_int before /. float_of_int (max 1 after)
