(* Word-level combinational expressions over inputs and register
   outputs.  Strict widths: binary operators require equal operand widths
   and wrap around; comparisons yield width-1 results. *)

type unop = Not | Neg

type binop = Add | Sub | Mul | And | Or | Xor | Eq | Ult | Ule

type t =
  | Const of Bitvec.t
  | Input of string
  | Reg of string
  | Unop of unop * t
  | Binop of binop * t * t
  | Mux of t * t * t  (* Mux (sel, then_, else_) with sel of width 1 *)
  | Slice of t * int * int  (* Slice (e, hi, lo) *)
  | Concat of t * t  (* Concat (hi, lo) *)

let const ~width value = Const (Bitvec.make ~width value)
let input name = Input name
let reg name = Reg name
let not_ e = Unop (Not, e)
let neg e = Unop (Neg, e)
let add a b = Binop (Add, a, b)
let sub a b = Binop (Sub, a, b)
let mul a b = Binop (Mul, a, b)
let and_ a b = Binop (And, a, b)
let or_ a b = Binop (Or, a, b)
let xor a b = Binop (Xor, a, b)
let eq a b = Binop (Eq, a, b)
let ult a b = Binop (Ult, a, b)
let ule a b = Binop (Ule, a, b)
let mux sel then_ else_ = Mux (sel, then_, else_)
let slice e ~hi ~lo = Slice (e, hi, lo)
let concat hi lo = Concat (hi, lo)

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Eq -> "=="
  | Ult -> "<u"
  | Ule -> "<=u"

(* Width inference, given the declared widths of inputs and registers.
   [infer_width] is the total (result-typed) static elaboration check;
   [width] is the raising wrapper the evaluators use. *)
let ( let* ) = Result.bind

let rec infer_width ~input_width ~reg_width e =
  let recur = infer_width ~input_width ~reg_width in
  match e with
  | Const v -> Ok (Bitvec.width v)
  | Input n -> (
      match input_width n with
      | Some w -> Ok w
      | None -> Error ("undeclared input " ^ n))
  | Reg n -> (
      match reg_width n with
      | Some w -> Ok w
      | None -> Error ("undeclared register " ^ n))
  | Unop (_, a) -> recur a
  | Binop ((Eq | Ult | Ule) as op, a, b) ->
      let* wa = recur a in
      let* wb = recur b in
      if wa <> wb then
        Error
          (Printf.sprintf "comparison %s width mismatch %d vs %d"
             (binop_to_string op) wa wb)
      else Ok 1
  | Binop (op, a, b) ->
      let* wa = recur a in
      let* wb = recur b in
      if wa <> wb then
        Error
          (Printf.sprintf "%s width mismatch %d vs %d" (binop_to_string op) wa
             wb)
      else Ok wa
  | Mux (sel, t, f) ->
      let* ws = recur sel in
      if ws <> 1 then
        Error (Printf.sprintf "mux selector width %d, expected 1" ws)
      else
        let* wt = recur t in
        let* wf = recur f in
        if wt <> wf then
          Error (Printf.sprintf "mux arm width mismatch %d vs %d" wt wf)
        else Ok wt
  | Slice (a, hi, lo) ->
      let* wa = recur a in
      if lo < 0 || hi < lo || hi >= wa then
        Error
          (Printf.sprintf "slice [%d:%d] out of range for width %d" hi lo wa)
      else Ok (hi - lo + 1)
  | Concat (hi, lo) ->
      let* wh = recur hi in
      let* wl = recur lo in
      Ok (wh + wl)

let width ~input_width ~reg_width e =
  match infer_width ~input_width ~reg_width e with
  | Ok w -> w
  | Error msg -> invalid_arg ("Expr.width: " ^ msg)

(* Evaluate with the given environments. *)
let rec eval ~input ~reg e =
  let recur = eval ~input ~reg in
  match e with
  | Const v -> v
  | Input n -> input n
  | Reg n -> reg n
  | Unop (Not, a) -> Bitvec.lognot (recur a)
  | Unop (Neg, a) -> Bitvec.neg (recur a)
  | Binop (Add, a, b) -> Bitvec.add (recur a) (recur b)
  | Binop (Sub, a, b) -> Bitvec.sub (recur a) (recur b)
  | Binop (Mul, a, b) -> Bitvec.mul (recur a) (recur b)
  | Binop (And, a, b) -> Bitvec.logand (recur a) (recur b)
  | Binop (Or, a, b) -> Bitvec.logor (recur a) (recur b)
  | Binop (Xor, a, b) -> Bitvec.logxor (recur a) (recur b)
  | Binop (Eq, a, b) ->
      Bitvec.make ~width:1 (if Bitvec.equal (recur a) (recur b) then 1 else 0)
  | Binop (Ult, a, b) ->
      Bitvec.make ~width:1 (if Bitvec.ult (recur a) (recur b) then 1 else 0)
  | Binop (Ule, a, b) ->
      let va = recur a and vb = recur b in
      Bitvec.make ~width:1 (if not (Bitvec.ult vb va) then 1 else 0)
  | Mux (sel, t, f) ->
      if Bitvec.to_int (recur sel) = 1 then recur t else recur f
  | Slice (a, hi, lo) -> Bitvec.slice (recur a) ~hi ~lo
  | Concat (hi, lo) -> Bitvec.concat (recur hi) (recur lo)

let map f e =
  match e with
  | Const _ | Input _ | Reg _ -> e
  | Unop (op, a) -> Unop (op, f a)
  | Binop (op, a, b) ->
      let b = f b in
      let a = f a in
      Binop (op, a, b)
  | Mux (s, t, el) ->
      let el = f el in
      let t = f t in
      let s = f s in
      Mux (s, t, el)
  | Slice (a, hi, lo) -> Slice (f a, hi, lo)
  | Concat (a, b) ->
      let b = f b in
      let a = f a in
      Concat (a, b)

(* All input / register names mentioned. *)
let rec fold_names f acc e =
  match e with
  | Const _ -> acc
  | Input n -> f acc (`Input n)
  | Reg n -> f acc (`Reg n)
  | Unop (_, a) -> fold_names f acc a
  | Binop (_, a, b) -> fold_names f (fold_names f acc a) b
  | Mux (a, b, c) -> fold_names f (fold_names f (fold_names f acc a) b) c
  | Slice (a, _, _) -> fold_names f acc a
  | Concat (a, b) -> fold_names f (fold_names f acc a) b
