(* The level-1 system specification: a dataflow graph of communicating
   tasks (the "number of tasks, still in C, where abstract communication
   is introduced" of the traditional flow's stage II).

   Semantics: homogeneous synchronous dataflow.  A task fires by
   consuming one token from each input channel and producing one token on
   each output channel.  Source tasks (no inputs) produce from a
   generator until it is exhausted; that bounds the execution.  Every
   channel has exactly one producer; it has exactly one consumer unless
   it is listed as a sink (environment-consumed result stream). *)

type firing = {
  outputs : Token.t list;  (* one per declared output channel *)
  work : int;  (* work units performed, for profiling *)
}

type task = {
  name : string;
  inputs : string list;  (* channel names consumed *)
  outputs : string list;  (* channel names produced *)
  fire : firing_index:int -> Token.t list -> firing option;
      (* [None] from a source ends the run; non-sources must return
         [Some] (they fire only when tokens are available). *)
}

type t = {
  name : string;
  tasks : task list;
  sinks : string list;  (* channels read by the environment *)
}

let task ~name ~inputs ~outputs fire = { name; inputs; outputs; fire }

(* A simple task: pure function of its inputs, fixed work model. *)
let transform ~name ~inputs ~outputs ~work f =
  task ~name ~inputs ~outputs (fun ~firing_index:_ tokens ->
      let produced = f tokens in
      Some { outputs = produced; work = work tokens })

(* A source: produces [script i] until it returns None. *)
let source ~name ~outputs ~work script =
  task ~name ~inputs:[] ~outputs (fun ~firing_index tokens ->
      assert (tokens = []);
      match script firing_index with
      | None -> None
      | Some produced -> Some { outputs = produced; work })

let channels g =
  List.concat_map (fun (t : task) -> t.outputs) g.tasks |> List.sort_uniq compare

let producer_of g channel =
  List.find_opt (fun (t : task) -> List.mem channel t.outputs) g.tasks

let consumer_of g channel =
  List.find_opt (fun (t : task) -> List.mem channel t.inputs) g.tasks

(* Static checks: unique task names; every channel has exactly one
   producer; exactly one consumer or is a sink; every input channel is
   produced by someone; no task both produces and consumes a channel. *)
let validate g =
  let names = List.map (fun (t : task) -> t.name) g.tasks in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg ("Task_graph " ^ g.name ^ ": duplicate task name");
  let all_outputs = List.concat_map (fun (t : task) -> t.outputs) g.tasks in
  if List.length (List.sort_uniq compare all_outputs) <> List.length all_outputs
  then invalid_arg ("Task_graph " ^ g.name ^ ": channel has two producers");
  let all_inputs = List.concat_map (fun (t : task) -> t.inputs) g.tasks in
  if List.length (List.sort_uniq compare all_inputs) <> List.length all_inputs
  then invalid_arg ("Task_graph " ^ g.name ^ ": channel has two consumers");
  List.iter
    (fun c ->
      if not (List.mem c all_outputs) then
        invalid_arg ("Task_graph " ^ g.name ^ ": channel " ^ c ^ " never produced"))
    all_inputs;
  List.iter
    (fun c ->
      let consumed = List.mem c all_inputs in
      let sunk = List.mem c g.sinks in
      if consumed && sunk then
        invalid_arg ("Task_graph " ^ g.name ^ ": sink " ^ c ^ " also consumed");
      if (not consumed) && not sunk then
        invalid_arg ("Task_graph " ^ g.name ^ ": channel " ^ c ^ " never consumed"))
    all_outputs;
  List.iter
    (fun (t : task) ->
      List.iter
        (fun c ->
          if List.mem c t.outputs then
            invalid_arg ("Task_graph " ^ g.name ^ ": self-loop on " ^ c))
        t.inputs)
    g.tasks;
  g

let make ~name ~tasks ~sinks = validate { name; tasks; sinks }

(* Topological order of tasks (Kahn).  Fails on cyclic graphs — cyclic
   specifications must be handled by the LPV deadlock analysis first. *)
let topological_order g =
  let tasks = g.tasks in
  let depends_on (t : task) (u : task) =
    (* t consumes a channel produced by u *)
    List.exists (fun c -> List.mem c u.outputs) t.inputs
  in
  let remaining = ref tasks in
  let order = ref [] in
  let rec step () =
    match
      List.find_opt
        (fun (t : task) ->
          List.for_all
            (fun (u : task) -> t.name = u.name || not (depends_on t u))
            !remaining)
        !remaining
    with
    | None ->
        if !remaining = [] then ()
        else invalid_arg ("Task_graph " ^ g.name ^ ": cyclic dependencies")
    | Some t ->
        order := t :: !order;
        remaining :=
          List.filter (fun (u : task) -> u.name <> t.name) !remaining;
        if !remaining <> [] then step ()
  in
  if tasks <> [] then step ();
  List.rev !order
