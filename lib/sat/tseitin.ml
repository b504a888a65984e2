(* Tseitin gate encodings: build combinational logic directly into a
   solver's clause database.  Each gate returns the literal of a
   variable constrained to equal the gate function.  This is the
   bit-blasting backend used by Symbad_hdl.Unroll and the SAT ATPG
   engine.

   Gates are hash-consed (structural hashing, see tseitin.mli), so
   repeated subterms, a property restating next-state logic and the
   two halves of a miter outside a fault's fan-out cone all blast to
   shared literals. *)

type key = And of int * int | Xor of int * int | Mux of int * int * int

type ctx = {
  solver : Solver.t;
  lit_true : int; (* literal asserted true, for constant folding *)
  gates : (key, int) Hashtbl.t; (* normalised gate -> output literal *)
}

let create solver =
  let t = Solver.new_var solver in
  Solver.add_clause solver [ t ];
  { solver; lit_true = t; gates = Hashtbl.create 1024 }

let solver ctx = ctx.solver
let const_true ctx = ctx.lit_true
let const_false ctx = -ctx.lit_true
let of_bool ctx b = if b then ctx.lit_true else -ctx.lit_true

let fresh ctx = Solver.new_var ctx.solver

(* The output of gate [key], defined by [clauses o] on first request. *)
let shared ctx key clauses =
  match Hashtbl.find_opt ctx.gates key with
  | Some o -> o
  | None ->
      let o = fresh ctx in
      List.iter (Solver.add_clause ctx.solver) (clauses o);
      Hashtbl.add ctx.gates key o;
      o

let and_gate ctx a b =
  if a = b then a
  else if a = -b then const_false ctx
  else if a = ctx.lit_true then b
  else if b = ctx.lit_true then a
  else if a = -ctx.lit_true || b = -ctx.lit_true then const_false ctx
  else
    shared ctx (And (min a b, max a b)) (fun o ->
        [ [ -o; a ]; [ -o; b ]; [ o; -a; -b ] ])

let or_gate ctx a b = -and_gate ctx (-a) (-b)

let xor_gate ctx a b =
  if a = b then const_false ctx
  else if a = -b then const_true ctx
  else if a = ctx.lit_true then -b
  else if a = -ctx.lit_true then b
  else if b = ctx.lit_true then -a
  else if b = -ctx.lit_true then a
  else
    (* a xor b = |a| xor |b|, negated once per negative operand *)
    let x = abs a and y = abs b in
    let o =
      shared ctx (Xor (min x y, max x y)) (fun o ->
          [ [ -o; x; y ]; [ -o; -x; -y ]; [ o; -x; y ]; [ o; x; -y ] ])
    in
    if (a < 0) <> (b < 0) then -o else o

let iff_gate ctx a b = -xor_gate ctx a b

(* if s then a else b *)
let mux_gate ctx ~sel a b =
  if a = b then a
  else if sel = ctx.lit_true then a
  else if sel = -ctx.lit_true then b
  else
    let sel, a, b = if sel < 0 then (-sel, b, a) else (sel, a, b) in
    shared ctx (Mux (sel, a, b)) (fun o ->
        [ [ -o; -sel; a ]; [ -o; sel; b ]; [ o; -sel; -a ]; [ o; sel; -b ] ])

let and_list ctx = function
  | [] -> const_true ctx
  | l :: ls -> List.fold_left (and_gate ctx) l ls

(* Full adder: returns (sum, carry). *)
let full_adder ctx a b cin =
  let sum = xor_gate ctx (xor_gate ctx a b) cin in
  let carry =
    or_gate ctx (and_gate ctx a b) (and_gate ctx cin (xor_gate ctx a b))
  in
  (sum, carry)

let assert_lit ctx l = Solver.add_clause ctx.solver [ l ]
