(* Safety properties over a netlist: width-1 expressions over the
   netlist's inputs and registers that must hold in every reachable state
   (for every input). *)

module Expr = Symbad_hdl.Expr
module Netlist = Symbad_hdl.Netlist

type t = { name : string; formula : Expr.t; step : bool }

let make ~name formula = { name; formula; step = false }

(* A transition (two-state) property: register names ending in ['] refer
   to the next state, e.g. "push && !full ==> count' = count + 1". *)
let make_step ~name formula = { name; formula; step = true }

let name p = p.name
let formula p = p.formula
let is_step p = p.step

let is_primed n = String.length n > 0 && n.[String.length n - 1] = '\''
let strip_prime n =
  if is_primed n then String.sub n 0 (String.length n - 1) else n

(* [next e] rewrites every register reference to its primed version, so
   step properties can be written as [implies guard (next expr)]. *)
let rec next (e : Expr.t) =
  match e with
  | Expr.Reg n -> Expr.Reg (if is_primed n then n else n ^ "'")
  | e -> Expr.map next e

(* Inline a named output of the netlist as an expression usable inside a
   property (outputs are combinational, so substitution is sound). *)
let output nl out =
  match Netlist.find_output nl out with
  | Some e -> e
  | None ->
      invalid_arg
        ("Prop.output: no output " ^ out ^ " in " ^ Netlist.name nl)

let implies a b = Expr.or_ (Expr.not_ a) b

(* Validate that the formula is a width-1 expression of the netlist;
   primed registers are allowed only in step properties. *)
let validate nl p =
  let reg_width n =
    if is_primed n && not p.step then None
    else Netlist.reg_width (strip_prime n) nl
  in
  let w =
    Expr.width ~input_width:(fun n -> Netlist.input_width n nl) ~reg_width
      p.formula
  in
  if w <> 1 then
    invalid_arg
      (Printf.sprintf "Prop %s: formula width %d, expected 1" p.name w);
  p
