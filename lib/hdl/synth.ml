(* A small behavioural-synthesis front end.

   "The complete task of mapping the SystemC to RTL, a.k.a behavioral
   synthesis, is much farther the purpose of Vista" — likewise here, but
   the predefined-IP route still needs a way to turn small dataflow
   descriptions into netlists.  [combinational] elaborates a list of SSA
   definitions into a purely combinational netlist; [registered] wraps
   the same dataflow with input and output registers (a 2-stage design
   suitable for bus-clock domains); both validate widths through the
   netlist elaborator. *)

type dataflow = {
  df_name : string;
  df_inputs : (string * int) list;
  df_defs : (string * Expr.t) list;
      (* SSA: each definition may reference inputs and earlier defs *)
  df_outputs : (string * string) list;  (* output name -> def or input *)
}

(* Substitute defs (referenced via [Expr.Reg]) into one expression,
   yielding an expression over inputs only.  [stack] tracks the defs
   currently being expanded: a cyclic definition (a combinational loop)
   is a clear error instead of a stack overflow. *)
let rec inline ?(stack = []) defs (e : Expr.t) =
  match e with
  | Expr.Reg n -> (
      if List.mem n stack then
        invalid_arg
          ("Synth: combinational loop through def "
          ^ String.concat " -> " (List.rev (n :: stack)));
      match List.assoc_opt n defs with
      | Some def -> inline ~stack:(n :: stack) defs def
      | None -> invalid_arg ("Synth: reference to unknown def " ^ n))
  | e -> Expr.map (inline ~stack defs) e

let resolve_output df (out_name, source) =
  if List.mem_assoc source df.df_inputs then (out_name, Expr.Input source)
  else
    match List.assoc_opt source df.df_defs with
    | Some _ -> (out_name, inline df.df_defs (Expr.Reg source))
    | None ->
        invalid_arg
          (Printf.sprintf "Synth: output %s references unknown %s" out_name
             source)

(* Purely combinational elaboration: defs are inlined into the outputs. *)
let combinational df =
  Netlist.make ~name:df.df_name ~inputs:df.df_inputs ~registers:[]
    ~outputs:(List.map (resolve_output df) df.df_outputs)

(* Registered elaboration: inputs are sampled into registers, the
   dataflow computes from the sampled values, and results are registered
   again — output latency two cycles, one transaction in flight. *)
let registered df =
  let comb = combinational df in
  let in_reg n = n ^ "$q" in
  (* rewrite the combinational outputs to read the sampled inputs *)
  let rec sample (e : Expr.t) =
    match e with
    | Expr.Input n -> Expr.Reg (in_reg n)
    | e -> Expr.map sample e
  in
  let input_registers =
    List.map
      (fun (n, w) ->
        {
          Netlist.name = in_reg n;
          width = w;
          init = Bitvec.zero ~width:w;
          next = Expr.Input n;
        })
      df.df_inputs
  in
  let output_registers =
    List.map
      (fun (n, e) ->
        let w = Netlist.expr_width comb e in
        {
          Netlist.name = n ^ "$q";
          width = w;
          init = Bitvec.zero ~width:w;
          next = sample e;
        })
      (Netlist.outputs comb)
  in
  Netlist.make ~name:(df.df_name ^ "_reg") ~inputs:df.df_inputs
    ~registers:(input_registers @ output_registers)
    ~outputs:
      (List.map (fun (n, _) -> (n, Expr.Reg (n ^ "$q"))) (Netlist.outputs comb))

(* Equivalence check between the synthesised combinational netlist and a
   reference OCaml function, by SAT: UNSAT of "outputs differ" proves
   them equal on the whole input space... for a reference that is itself
   a netlist.  For an OCaml oracle we exhaustively simulate when the
   input space is small, which is the honest bounded check. *)
let equivalent_to_oracle nl oracle =
  let inputs = Netlist.inputs nl in
  let bits = List.fold_left (fun a (_, w) -> a + w) 0 inputs in
  if bits > 16 then None
  else begin
    let sim = Simulator.create nl in
    let ok = ref true in
    for idx = 0 to (1 lsl bits) - 1 do
      let rec split idx = function
        | [] -> []
        | (n, w) :: rest ->
            (n, Bitvec.make ~width:w (idx land ((1 lsl w) - 1)))
            :: split (idx lsr w) rest
      in
      let valuation = split idx inputs in
      let got =
        List.map
          (fun (n, _) ->
            (n, Bitvec.to_int (Simulator.output sim ~inputs:valuation n)))
          (Netlist.outputs nl)
      in
      let want = oracle (List.map (fun (n, v) -> (n, Bitvec.to_int v)) valuation) in
      if got <> want then ok := false
    done;
    Some !ok
  end
