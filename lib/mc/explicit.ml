(* Explicit-state reachability for small netlists.

   Enumerates every input valuation at every reachable state, so it is a
   decision procedure (Proved / Falsified) whenever the state and input
   spaces fit in memory — the case for the control-dominated RTL modules
   of the case study.  Used both as a reference oracle for the SAT-based
   engines and to answer "reachability checking" queries directly.

   Every expansion runs on the compiled [Hdl.Simulator]: the state is
   loaded into its slots, one input valuation is loaded and the clock
   ticked, and the property is read across that edge — primed registers
   after it, everything else (an invariant entirely) before it. *)

module Netlist = Symbad_hdl.Netlist
module Simulator = Symbad_hdl.Simulator
module Expr = Symbad_hdl.Expr
module Gov = Symbad_gov.Gov

type result =
  | Proved of { states : int }
  | Falsified of Trace.t
  | Too_large
  | Interrupted

let total_input_bits nl =
  List.fold_left (fun acc (_, w) -> acc + w) 0 (Netlist.inputs nl)

(* All input valuations, one value per input in declaration order, by
   counting a flat index: the first input takes the low bits. *)
let input_valuations nl =
  let rec split idx = function
    | [] -> []
    | (_, w) :: rest -> (idx land ((1 lsl w) - 1)) :: split (idx lsr w) rest
  in
  Array.init
    (1 lsl total_input_bits nl)
    (fun idx -> Array.of_list (split idx (Netlist.inputs nl)))

let check ?gov nl prop =
  let gov = Gov.get gov in
  let max_states = 1 lsl 20 and max_input_bits = 12 and max_evals = 1 lsl 22 in
  let prop = Prop.validate nl prop in
  if total_input_bits nl > max_input_bits then Too_large
  else begin
    let sim = Simulator.create nl in
    let holds = Simulator.compile_step sim (Prop.formula prop) in
    let valuations = input_valuations nl in
    (* every reached state, with its BFS parent and the valuation taken
       from it, for counterexample reconstruction *)
    let visited = Hashtbl.create 1024 in
    let queue = Queue.create () in
    let init = Simulator.read_state sim in
    Hashtbl.add visited init None;
    Queue.push init queue;
    let to_frame state inputs =
      let named names values = List.combine names (Array.to_list values) in
      {
        Trace.inputs = named (List.map fst (Netlist.inputs nl)) inputs;
        regs =
          named
            (List.map (fun (r : Netlist.register) -> r.Netlist.name)
               (Netlist.registers nl))
            state;
      }
    in
    let rec rebuild state inputs acc =
      let acc = to_frame state inputs :: acc in
      match Hashtbl.find visited state with
      | None -> acc
      | Some (prev_state, prev_inputs) -> rebuild prev_state prev_inputs acc
    in
    let exception Violation of Trace.t in
    let exception Blown_up in
    let exception Out_of_budget in
    (* Tractability is the PRODUCT of states and input valuations, not
       either alone: a 12-bit-input design within the state cap still
       means billions of transition evaluations.  Count every (state,
       valuation) expansion and give up past the work budget. *)
    let evals = ref 0 in
    try
      while not (Queue.is_empty queue) do
        (* one expanded state is one pattern of the governor's *)
        if Gov.out_of_budget gov then raise Out_of_budget;
        Gov.charge_patterns gov 1;
        let state = Queue.pop queue in
        Array.iter
          (fun inputs ->
            incr evals;
            if !evals > max_evals then raise Blown_up;
            Simulator.load_state sim state;
            Simulator.set_inputs sim inputs;
            Simulator.tick sim;
            if holds () <> 1 then raise (Violation (rebuild state inputs []));
            let succ = Simulator.read_state sim in
            if not (Hashtbl.mem visited succ) then begin
              if Hashtbl.length visited >= max_states then raise Blown_up;
              Hashtbl.add visited succ (Some (state, inputs));
              Queue.push succ queue
            end)
          valuations
      done;
      Proved { states = Hashtbl.length visited }
    with
    | Violation tr -> Falsified tr
    | Blown_up -> Too_large
    | Out_of_budget -> Interrupted
  end

(* Reachable-state count, for reachability-checking reports. *)
let reachable_states nl =
  match check nl (Prop.make ~name:"true" (Expr.const ~width:1 1)) with
  | Proved { states } -> Some states
  | Falsified _ | Too_large | Interrupted -> None
