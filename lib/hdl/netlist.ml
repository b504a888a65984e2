(* Synchronous netlists: inputs, registers with reset values and
   next-state expressions, and named combinational outputs.  This is the
   "RTL SystemC / RTL VHDL" carrier of level 4: the model checker, the
   property-coverage checker and the fault injector all operate on it. *)

type register = { name : string; width : int; init : Bitvec.t; next : Expr.t }

type t = {
  name : string;
  inputs : (string * int) list;
  registers : register list;
  outputs : (string * Expr.t) list;
}

let input_width n nl = List.assoc_opt n nl.inputs

let reg_width n nl =
  List.find_opt (fun (r : register) -> String.equal r.name n) nl.registers
  |> Option.map (fun (r : register) -> r.width)

let infer_expr_width nl e =
  Expr.infer_width
    ~input_width:(fun n -> input_width n nl)
    ~reg_width:(fun n -> reg_width n nl)
    e

let expr_width nl e =
  match infer_expr_width nl e with
  | Ok w -> w
  | Error msg -> invalid_arg ("Expr.width: " ^ msg)

(* Structural elaboration: check name uniqueness, width consistency of
   every next-state and output expression.  Errors carry the netlist and
   the register/output the offending expression belongs to. *)
let validate nl =
  let names = List.map fst nl.inputs @ List.map (fun (r : register) -> r.name) nl.registers in
  let dedup = List.sort_uniq String.compare names in
  if List.length dedup <> List.length names then
    invalid_arg ("Netlist " ^ nl.name ^ ": duplicate signal name");
  List.iter
    (fun (n, w) ->
      if w < 1 || w > Bitvec.max_width then
        invalid_arg ("Netlist " ^ nl.name ^ ": bad width for input " ^ n))
    nl.inputs;
  List.iter
    (fun (r : register) ->
      if Bitvec.width r.init <> r.width then
        invalid_arg ("Netlist " ^ nl.name ^ ": init width of " ^ r.name);
      match infer_expr_width nl r.next with
      | Error msg ->
          invalid_arg
            (Printf.sprintf "Netlist %s: next(%s): %s" nl.name r.name msg)
      | Ok w ->
          if w <> r.width then
            invalid_arg
              (Printf.sprintf "Netlist %s: next(%s) width %d, declared %d"
                 nl.name r.name w r.width))
    nl.registers;
  List.iter
    (fun (n, e) ->
      match infer_expr_width nl e with
      | Error msg ->
          invalid_arg
            (Printf.sprintf "Netlist %s: output %s: %s" nl.name n msg)
      | Ok _ -> ())
    nl.outputs;
  nl

let make ~name ~inputs ~registers ~outputs =
  validate { name; inputs; registers; outputs }

(* No elaboration at all: the carrier for lint fixtures and for
   netlists under repair, where the defects [make] rejects must be
   representable so the lint can diagnose them. *)
let make_unchecked ~name ~inputs ~registers ~outputs =
  { name; inputs; registers; outputs }

let name nl = nl.name
let inputs nl = nl.inputs
let registers nl = nl.registers
let outputs nl = nl.outputs

let find_register nl n =
  List.find_opt (fun (r : register) -> String.equal r.name n) nl.registers

let find_output nl n = List.assoc_opt n nl.outputs

(* Rough gate-count proxy used as the area estimate for FPGA mapping. *)
let rec expr_cost = function
  | Expr.Const _ | Expr.Input _ | Expr.Reg _ -> 0
  | Expr.Unop (_, a) -> 1 + expr_cost a
  | Expr.Binop (Expr.Mul, a, b) -> 16 + expr_cost a + expr_cost b
  | Expr.Binop (_, a, b) -> 2 + expr_cost a + expr_cost b
  | Expr.Mux (a, b, c) -> 2 + expr_cost a + expr_cost b + expr_cost c
  | Expr.Slice (a, _, _) -> expr_cost a
  | Expr.Concat (a, b) -> expr_cost a + expr_cost b

let area nl =
  List.fold_left (fun acc (r : register) -> acc + r.width + expr_cost r.next) 0 nl.registers
  + List.fold_left (fun acc (_, e) -> acc + expr_cost e) 0 nl.outputs
