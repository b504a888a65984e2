(* Architecture mapping: which resource executes each task.

   Level 2 decides Sw vs Hw from the profiling ranking; level 3 refines
   some Hw tasks into FPGA contexts. *)

module Annotation = Symbad_tlm.Annotation

type target = Sw | Hw | Fpga of string  (* FPGA context name *)

type t = (string * target) list

let target_of m task =
  match List.assoc_opt task m with
  | Some t -> t
  | None -> invalid_arg ("Mapping: unmapped task " ^ task)

let annotation_target = function
  | Sw -> Annotation.Sw
  | Hw -> Annotation.Hw
  | Fpga _ -> Annotation.Fpga

let hw_tasks m = List.filter_map (fun (t, tg) -> if tg = Hw then Some t else None) m

let fpga_tasks m =
  List.filter_map
    (fun (t, tg) -> match tg with Fpga c -> Some (t, c) | Sw | Hw -> None)
    m

let contexts m =
  List.sort_uniq String.compare (List.map snd (fpga_tasks m))

let is_sw m task = target_of m task = Sw

let all_sw graph =
  List.map (fun (t : Task_graph.task) -> (t.Task_graph.name, Sw)) graph.Task_graph.tasks

(* The designer's level-2 heuristic: map the [top_n] most demanding tasks
   (from the level-1 execution profile) to hardware, except the ones
   pinned to SW (sources/sinks that model the environment). *)
let of_ranking ?(pinned_sw = []) ~top_n profile graph =
  let ranking = Annotation.Profile.ranking profile in
  let eligible =
    List.filter (fun (name, _) -> not (List.mem name pinned_sw)) ranking
  in
  let hw = List.filteri (fun i _ -> i < top_n) eligible |> List.map fst in
  List.map
    (fun (t : Task_graph.task) ->
      let name = t.Task_graph.name in
      (name, if List.mem name hw then Hw else Sw))
    graph.Task_graph.tasks

(* Level-3 refinement: move the given HW tasks into FPGA contexts. *)
let refine_to_fpga m assignments =
  List.map
    (fun (task, target) ->
      match List.assoc_opt task assignments with
      | Some ctx ->
          if target <> Hw then
            invalid_arg ("Mapping.refine_to_fpga: " ^ task ^ " is not HW");
          (task, Fpga ctx)
      | None -> (task, target))
    m

(* Transformation 2 of the paper: move one module between partitions. *)
let move m task target =
  if not (List.mem_assoc task m) then
    invalid_arg ("Mapping.move: unknown task " ^ task);
  List.map (fun (t, tg) -> if String.equal t task then (t, target) else (t, tg)) m

let target_to_string = function
  | Sw -> "SW"
  | Hw -> "HW"
  | Fpga c -> "FPGA/" ^ c

let pp fmt m =
  List.iter
    (fun (t, tg) -> Fmt.pf fmt "  %-10s -> %s@." t (target_to_string tg))
    m
