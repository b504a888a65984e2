(* Bounded unrolling of a netlist into CNF (bit-blasting), the engine
   room of SAT-based model checking (BMC and k-induction) and of the SAT
   ATPG engine.

   Every expression elaborates to an array of literals, LSB first.
   Frame 0 registers are either constrained to their reset values (BMC)
   or left free (the inductive step of k-induction). *)

module Solver = Symbad_sat.Solver
module Tseitin = Symbad_sat.Tseitin

type frame = {
  input_bits : (string * int array) list;
  reg_bits : (string * int array) list;
}

type init_mode = Reset | Free

type t = {
  ctx : Tseitin.ctx;
  netlist : Netlist.t;
  mutable frames : frame array;
  mutable nframes : int;
}

let fresh_bits ctx w = Array.init w (fun _ -> Tseitin.fresh ctx)

let const_bits ctx v =
  Array.init (Bitvec.width v) (fun i -> Tseitin.of_bool ctx (Bitvec.bit v i))

(* Ripple-carry a + b + cin; returns (sum bits, carry out). *)
let adder ctx a b cin =
  let w = Array.length a in
  let sum = Array.make w (Tseitin.const_false ctx) in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let s, c = Tseitin.full_adder ctx a.(i) b.(i) !carry in
    sum.(i) <- s;
    carry := c
  done;
  (sum, !carry)

let rec blast ctx ~input ~reg (e : Expr.t) : int array =
  let recur e = blast ctx ~input ~reg e in
  match e with
  | Expr.Const v -> const_bits ctx v
  | Expr.Input n -> input n
  | Expr.Reg n -> reg n
  | Expr.Unop (Expr.Not, a) -> Array.map (fun l -> -l) (recur a)
  | Expr.Unop (Expr.Neg, a) ->
      let a = recur a in
      let nb = Array.map (fun l -> -l) a in
      let zero = Array.make (Array.length a) (Tseitin.const_false ctx) in
      fst (adder ctx zero nb (Tseitin.const_true ctx))
  | Expr.Binop (Expr.Add, a, b) ->
      fst (adder ctx (recur a) (recur b) (Tseitin.const_false ctx))
  | Expr.Binop (Expr.Sub, a, b) ->
      let nb = Array.map (fun l -> -l) (recur b) in
      fst (adder ctx (recur a) nb (Tseitin.const_true ctx))
  | Expr.Binop (Expr.Mul, a, b) ->
      let a = recur a and b = recur b in
      let w = Array.length a in
      let acc = ref (Array.make w (Tseitin.const_false ctx)) in
      for i = 0 to w - 1 do
        (* partial product: (b << i) gated by a.(i) *)
        let partial =
          Array.init w (fun j ->
              if j < i then Tseitin.const_false ctx
              else Tseitin.and_gate ctx a.(i) b.(j - i))
        in
        acc := fst (adder ctx !acc partial (Tseitin.const_false ctx))
      done;
      !acc
  | Expr.Binop (Expr.And, a, b) ->
      Array.map2 (Tseitin.and_gate ctx) (recur a) (recur b)
  | Expr.Binop (Expr.Or, a, b) ->
      Array.map2 (Tseitin.or_gate ctx) (recur a) (recur b)
  | Expr.Binop (Expr.Xor, a, b) ->
      Array.map2 (Tseitin.xor_gate ctx) (recur a) (recur b)
  | Expr.Binop (Expr.Eq, a, b) ->
      let bits = Array.map2 (Tseitin.iff_gate ctx) (recur a) (recur b) in
      [| Tseitin.and_list ctx (Array.to_list bits) |]
  | Expr.Binop (Expr.Ult, a, b) ->
      (* a < b  iff  no carry out of a + ~b + 1 *)
      let nb = Array.map (fun l -> -l) (recur b) in
      let _, carry = adder ctx (recur a) nb (Tseitin.const_true ctx) in
      [| -carry |]
  | Expr.Binop (Expr.Ule, a, b) ->
      (* a <= b  iff  not (b < a)  iff  carry out of b + ~a + 1 is 0... *)
      let na = Array.map (fun l -> -l) (recur a) in
      let _, carry = adder ctx (recur b) na (Tseitin.const_true ctx) in
      [| carry |]
  | Expr.Mux (sel, t, f) -> (
      match recur sel with
      | [| s |] -> Array.map2 (fun a b -> Tseitin.mux_gate ctx ~sel:s a b)
                     (recur t) (recur f)
      | _ -> invalid_arg "Unroll: mux selector must be 1 bit")
  | Expr.Slice (a, hi, lo) -> Array.sub (recur a) lo (hi - lo + 1)
  | Expr.Concat (hi, lo) -> Array.append (recur lo) (recur hi)

let frame_env (f : frame) =
  let input n =
    match List.assoc_opt n f.input_bits with
    | Some bits -> bits
    | None -> invalid_arg ("Unroll: unknown input " ^ n)
  and reg n =
    match List.assoc_opt n f.reg_bits with
    | Some bits -> bits
    | None -> invalid_arg ("Unroll: unknown register " ^ n)
  in
  (input, reg)

let make_frame0 ctx nl mode =
  let input_bits =
    List.map (fun (n, w) -> (n, fresh_bits ctx w)) (Netlist.inputs nl)
  in
  let reg_bits =
    List.map
      (fun (r : Netlist.register) ->
        match mode with
        | Reset -> (r.Netlist.name, const_bits ctx r.Netlist.init)
        | Free -> (r.Netlist.name, fresh_bits ctx r.Netlist.width))
      (Netlist.registers nl)
  in
  { input_bits; reg_bits }

let create ?(init = Reset) solver nl =
  let ctx = Tseitin.create solver in
  let f0 = make_frame0 ctx nl init in
  { ctx; netlist = nl; frames = Array.make 4 f0; nframes = 1 }


let push_frame t f =
  if t.nframes = Array.length t.frames then begin
    let a = Array.make (2 * t.nframes) f in
    Array.blit t.frames 0 a 0 t.nframes;
    t.frames <- a
  end;
  t.frames.(t.nframes) <- f;
  t.nframes <- t.nframes + 1

(* Add transition frames until at least [n] frames (states 0..n-1) exist. *)
let unroll_to t n =
  while t.nframes < n do
    let prev = t.frames.(t.nframes - 1) in
    let input, reg = frame_env prev in
    let input_bits =
      List.map
        (fun (nm, w) -> (nm, fresh_bits t.ctx w))
        (Netlist.inputs t.netlist)
    in
    let reg_bits =
      List.map
        (fun (r : Netlist.register) ->
          (r.Netlist.name, blast t.ctx ~input ~reg r.Netlist.next))
        (Netlist.registers t.netlist)
    in
    push_frame t { input_bits; reg_bits }
  done

let frame t i =
  if i < 0 || i >= t.nframes then invalid_arg "Unroll.frame: out of range";
  t.frames.(i)

(* Literals of an arbitrary (width-checked) expression at frame [i]. *)
let expr_lits t i e =
  ignore (Netlist.expr_width t.netlist e);
  let input, reg = frame_env (frame t i) in
  blast t.ctx ~input ~reg e

(* Literals of an expression that may reference primed registers
   (names ending in [']), which read from frame [i + 1].  Both frames
   must already exist. *)
let expr_lits_step t i e =
  let input, reg_cur = frame_env (frame t i) in
  let _, reg_next = frame_env (frame t (i + 1)) in
  let reg n =
    if String.length n > 0 && n.[String.length n - 1] = '\'' then
      reg_next (String.sub n 0 (String.length n - 1))
    else reg_cur n
  in
  blast t.ctx ~input ~reg e

let bool_lit_step t i e =
  match expr_lits_step t i e with
  | [| l |] -> l
  | bits ->
      invalid_arg
        (Printf.sprintf "Unroll.bool_lit_step: expression has width %d"
           (Array.length bits))

(* One-bit expression at frame [i], as a single literal. *)
let bool_lit t i e =
  match expr_lits t i e with
  | [| l |] -> l
  | bits ->
      invalid_arg
        (Printf.sprintf "Unroll.bool_lit: expression has width %d"
           (Array.length bits))

(* Read back a value from the model after a Sat answer. *)
let bits_value solver bits =
  let v = ref 0 in
  Array.iteri
    (fun i l ->
      let b =
        if l > 0 then Solver.model_value solver l
        else not (Solver.model_value solver (-l))
      in
      if b then v := !v lor (1 lsl i))
    bits;
  !v

let input_value solver t i name =
  match List.assoc_opt name (frame t i).input_bits with
  | Some bits -> bits_value solver bits
  | None -> invalid_arg ("Unroll.input_value: " ^ name)

let reg_value solver t i name =
  match List.assoc_opt name (frame t i).reg_bits with
  | Some bits -> bits_value solver bits
  | None -> invalid_arg ("Unroll.reg_value: " ^ name)
