(* Explicit-state reachability for small netlists.

   Enumerates every input valuation at every reachable state, so it is a
   decision procedure (Proved / Falsified) whenever the state and input
   spaces fit in memory — the case for the control-dominated RTL modules
   of the case study.  Used both as a reference oracle for the SAT-based
   engines and to answer "reachability checking" queries directly. *)

module Hdl = Symbad_hdl
module Netlist = Symbad_hdl.Netlist
module Bitvec = Symbad_hdl.Bitvec
module Expr = Symbad_hdl.Expr
module Gov = Symbad_gov.Gov

type result =
  | Proved of { states : int }
  | Falsified of Trace.t
  | Too_large
  | Interrupted

(* Packed state: register values in declaration order. *)
let pack values = values

let total_input_bits nl =
  List.fold_left (fun acc (_, w) -> acc + w) 0 (Netlist.inputs nl)

(* All input valuations as assoc lists, by counting a flat index. *)
let input_valuations nl =
  let inputs = Netlist.inputs nl in
  let bits = total_input_bits nl in
  List.init (1 lsl bits) (fun idx ->
      let rec split idx = function
        | [] -> []
        | (n, w) :: rest ->
            (n, Bitvec.make ~width:w (idx land ((1 lsl w) - 1)))
            :: split (idx lsr w) rest
      in
      split idx inputs)

let check ?gov nl prop =
  let gov = Gov.get gov in
  let max_states = 1 lsl 20 and max_input_bits = 12 and max_evals = 1 lsl 22 in
  let prop = Prop.validate nl prop in
  if total_input_bits nl > max_input_bits then Too_large
  else begin
    let formula = Prop.formula prop in
    let valuations = input_valuations nl in
    let registers = Netlist.registers nl in
    let init =
      List.map (fun (r : Netlist.register) -> r.Netlist.init) registers
    in
    let lookup env n =
      match List.assoc_opt n env with
      | Some v -> v
      | None -> invalid_arg ("Explicit: unbound " ^ n)
    in
    let eval state inputs e =
      let env_regs =
        List.map2
          (fun (r : Netlist.register) v -> (r.Netlist.name, v))
          registers state
      in
      Expr.eval ~input:(lookup inputs) ~reg:(lookup env_regs) e
    in
    let next state inputs =
      List.map (fun (r : Netlist.register) -> eval state inputs r.Netlist.next)
        registers
    in
    (* step properties read primed registers from the successor state *)
    let eval_prop state succ inputs =
      let env =
        List.concat
          (List.map2
             (fun (r : Netlist.register) (cur, nxt) ->
               [ (r.Netlist.name, cur); (r.Netlist.name ^ "'", nxt) ])
             registers
             (List.combine state succ))
      in
      Expr.eval ~input:(lookup inputs) ~reg:(lookup env) formula
    in
    let visited = Hashtbl.create 1024 in
    (* parent map for counterexample reconstruction *)
    let parent = Hashtbl.create 1024 in
    let queue = Queue.create () in
    Hashtbl.add visited (pack init) ();
    Queue.push init queue;
    let to_frame state inputs =
      {
        Trace.inputs =
          List.map (fun (n, v) -> (n, Bitvec.to_int v)) inputs;
        regs =
          List.map2
            (fun (r : Netlist.register) v -> (r.Netlist.name, Bitvec.to_int v))
            registers state;
      }
    in
    let rec rebuild state inputs acc =
      let frame = to_frame state inputs in
      match Hashtbl.find_opt parent (pack state) with
      | None -> frame :: acc
      | Some (prev_state, prev_inputs) ->
          rebuild prev_state prev_inputs (frame :: acc)
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
        List.iter
          (fun inputs ->
            incr evals;
            if !evals > max_evals then raise Blown_up;
            let succ = next state inputs in
            let holds = Bitvec.to_int (eval_prop state succ inputs) = 1 in
            if not holds then raise (Violation (rebuild state inputs []));
            if not (Hashtbl.mem visited (pack succ)) then begin
              if Hashtbl.length visited >= max_states then raise Blown_up;
              Hashtbl.add visited (pack succ) ();
              Hashtbl.add parent (pack succ) (state, inputs);
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
