(* Cycle-accurate netlist simulation, compiled.

   [create] turns the netlist into closures once: inputs and registers
   live in int slots, and every next-state function and output becomes
   a closure over those slots with its width masks worked out up front.
   A clock edge evaluates the next-state closures into the spare state
   array and swaps it in, so the state before the last edge stays
   readable — which is what a two-state formula reads (see
   [compile_step]). *)

type state = (string * Bitvec.t) list
(* register name -> value *)

(* The slots every closure reads, in netlist order.  [cur] and [prev]
   swap on each edge, so closures read them through this record. *)
type slots = {
  input_names : string list;
  input_widths : int array;
  reg_names : string list;
  reg_widths : int array;
  ins : int array;  (* the loaded inputs *)
  mutable cur : int array;  (* the current state *)
  mutable prev : int array;  (* the state before the last edge *)
}

type t = {
  slots : slots;
  init : int array;
  next : (unit -> int) array;
  outs : (string * int * (unit -> int)) list;  (* name, width, value *)
  mutable cycle : int;
}

let mask w = (1 lsl w) - 1

(* Compile [e] to a closure and its width; [input n] and [reg n] give
   the reader and width of a signal.  An ill-formed expression raises
   [Invalid_argument] naming the operator and the widths involved. *)
let rec compile_expr ~input ~reg (e : Expr.t) : (unit -> int) * int =
  let recur = compile_expr ~input ~reg in
  match e with
  | Expr.Const v ->
      let c = Bitvec.to_int v in
      ((fun () -> c), Bitvec.width v)
  | Expr.Input n -> input n
  | Expr.Reg n -> reg n
  | Expr.Unop (Expr.Not, a) ->
      let fa, w = recur a in
      let m = mask w in
      ((fun () -> lnot (fa ()) land m), w)
  | Expr.Unop (Expr.Neg, a) ->
      let fa, w = recur a in
      let m = mask w in
      ((fun () -> -fa () land m), w)
  | Expr.Binop (op, a, b) -> (
      let fa, wa = recur a and fb, wb = recur b in
      if wa <> wb then
        invalid_arg
          (Printf.sprintf "%s width mismatch %d vs %d" (Expr.binop_to_string op)
             wa wb);
      let m = mask wa in
      let bit c = if c then 1 else 0 in
      match op with
      | Expr.Add -> ((fun () -> (fa () + fb ()) land m), wa)
      | Expr.Sub -> ((fun () -> (fa () - fb ()) land m), wa)
      | Expr.Mul -> ((fun () -> fa () * fb () land m), wa)
      | Expr.And -> ((fun () -> fa () land fb ()), wa)
      | Expr.Or -> ((fun () -> fa () lor fb ()), wa)
      | Expr.Xor -> ((fun () -> fa () lxor fb ()), wa)
      | Expr.Eq -> ((fun () -> bit (Int.equal (fa ()) (fb ()))), 1)
      | Expr.Ult -> ((fun () -> bit (fa () < fb ())), 1)
      | Expr.Ule -> ((fun () -> bit (fa () <= fb ())), 1))
  | Expr.Mux (s, t, f) ->
      let fs, ws = recur s and ft, wt = recur t and ff, wf = recur f in
      if ws <> 1 then
        invalid_arg (Printf.sprintf "mux selector width %d, expected 1" ws);
      if wt <> wf then
        invalid_arg (Printf.sprintf "mux arm width mismatch %d vs %d" wt wf);
      ((fun () -> if fs () = 1 then ft () else ff ()), wt)
  | Expr.Slice (a, hi, lo) ->
      let fa, wa = recur a in
      if lo < 0 || hi < lo || hi >= wa then
        invalid_arg
          (Printf.sprintf "slice [%d:%d] out of range for width %d" hi lo wa);
      let m = mask (hi - lo + 1) in
      ((fun () -> (fa () lsr lo) land m), hi - lo + 1)
  | Expr.Concat (hi, lo) ->
      let fh, wh = recur hi and fl, wl = recur lo in
      if wh + wl > Bitvec.max_width then
        invalid_arg (Printf.sprintf "concat width %d too wide" (wh + wl));
      ((fun () -> (fh () lsl wl) lor fl ()), wh + wl)

let index_of what names n =
  let rec go i = function
    | [] -> invalid_arg (Printf.sprintf "undeclared %s %s" what n)
    | m :: _ when String.equal m n -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 names

let input_reader s n =
  let i = index_of "input" s.input_names n in
  ((fun () -> s.ins.(i)), s.input_widths.(i))

(* A register reads the current state, or with [~before] the state
   before the last edge. *)
let reg_reader s ~before n =
  let i = index_of "register" s.reg_names n in
  ( (if before then fun () -> s.prev.(i) else fun () -> s.cur.(i)),
    s.reg_widths.(i) )

let create nl =
  let registers = Array.of_list (Netlist.registers nl) in
  let of_registers f = Array.map f registers in
  let init = of_registers (fun r -> Bitvec.to_int r.Netlist.init) in
  let slots =
    {
      input_names = List.map fst (Netlist.inputs nl);
      input_widths = Array.of_list (List.map snd (Netlist.inputs nl));
      reg_names = Array.to_list (of_registers (fun r -> r.Netlist.name));
      reg_widths = of_registers (fun r -> r.Netlist.width);
      ins = Array.make (List.length (Netlist.inputs nl)) 0;
      cur = Array.copy init;
      prev = Array.copy init;
    }
  in
  let compile e =
    compile_expr ~input:(input_reader slots)
      ~reg:(reg_reader slots ~before:false)
      e
  in
  (* malformed netlists ([make_unchecked] builds them) are rejected
     here, the offending register or output named *)
  let next =
    Array.map
      (fun (r : Netlist.register) ->
        match compile r.Netlist.next with
        | f, w when w = r.Netlist.width -> f
        | _, w ->
            invalid_arg
              (Printf.sprintf "Simulator: next(%s) width %d, declared %d"
                 r.Netlist.name w r.Netlist.width)
        | exception Invalid_argument msg ->
            invalid_arg
              (Printf.sprintf "Simulator: next(%s): %s" r.Netlist.name msg))
      registers
  in
  let outs =
    List.map
      (fun (n, e) ->
        match compile e with
        | f, w -> (n, w, f)
        | exception Invalid_argument msg ->
            invalid_arg (Printf.sprintf "Simulator: output %s: %s" n msg))
      (Netlist.outputs nl)
  in
  { slots; init; next; outs; cycle = 0 }

let reset t =
  Array.blit t.init 0 t.slots.cur 0 (Array.length t.init);
  Array.blit t.init 0 t.slots.prev 0 (Array.length t.init);
  t.cycle <- 0

let cycle t = t.cycle

let state t =
  let s = t.slots in
  List.mapi
    (fun i n -> (n, Bitvec.make ~width:s.reg_widths.(i) s.cur.(i)))
    s.reg_names

let set_inputs t values =
  let s = t.slots in
  if Array.length values <> Array.length s.ins then
    invalid_arg "Simulator.set_inputs: one value per input expected";
  Array.iteri (fun i v -> s.ins.(i) <- v land mask s.input_widths.(i)) values

let load t inputs =
  let s = t.slots in
  List.iteri
    (fun i n ->
      match List.assoc_opt n inputs with
      | Some v -> s.ins.(i) <- Bitvec.to_int v land mask s.input_widths.(i)
      | None -> invalid_arg ("Simulator: unbound signal " ^ n))
    s.input_names

(* One clock edge under the loaded inputs: every next-state closure
   reads the current state, then the results become the state at
   once. *)
let tick t =
  let s = t.slots in
  let spare = s.prev in
  Array.iteri (fun i f -> spare.(i) <- f ()) t.next;
  s.prev <- s.cur;
  s.cur <- spare;
  t.cycle <- t.cycle + 1

let load_state t values =
  let s = t.slots in
  if Array.length values <> Array.length s.cur then
    invalid_arg "Simulator.load_state: one value per register expected";
  Array.iteri (fun i v -> s.cur.(i) <- v land mask s.reg_widths.(i)) values

let read_state t = Array.copy t.slots.cur

let compile_with t ~reg e =
  match compile_expr ~input:(input_reader t.slots) ~reg e with
  | f, _ -> f
  | exception Invalid_argument msg -> invalid_arg ("Simulator: " ^ msg)

let compile t e = compile_with t ~reg:(reg_reader t.slots ~before:false) e

(* Unroll.bool_lit_step's convention: a primed register reads the state
   after the edge, everything else the state and inputs before it. *)
let compile_step t e =
  let reg n =
    let len = String.length n in
    if len > 0 && n.[len - 1] = '\'' then
      reg_reader t.slots ~before:false (String.sub n 0 (len - 1))
    else reg_reader t.slots ~before:true n
  in
  compile_with t ~reg e

(* Evaluate all outputs for the current state and the given inputs. *)
let outputs t ~inputs =
  load t inputs;
  List.map (fun (n, w, f) -> (n, Bitvec.make ~width:w (f ()))) t.outs

let output t ~inputs name =
  match List.find_opt (fun (n, _, _) -> String.equal n name) t.outs with
  | None -> invalid_arg ("Simulator.output: no output " ^ name)
  | Some (_, w, f) ->
      load t inputs;
      Bitvec.make ~width:w (f ())

let step t ~inputs =
  load t inputs;
  tick t
