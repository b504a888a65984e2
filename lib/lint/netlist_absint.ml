(* Forward abstract interpretation over registers to fixpoint.

   The concrete semantics being over-approximated is
   [Hdl.Simulator]: registers start at their init values and step
   through their next-state functions under arbitrary inputs.  The one
   deliberate divergence is X: when the netlist has an explicit
   reset-like input, a register whose next-state cone ignores it is
   modelled as X (uninitialized) rather than as its init value —
   real silicon does not grant those registers a power-up value, only
   the simulator does.  X forces the full value range, so the
   abstraction still contains every simulator run. *)

module Expr = Symbad_hdl.Expr
module Bitvec = Symbad_hdl.Bitvec
module Netlist = Symbad_hdl.Netlist
module VD = Value_domain
module D = Diagnostic
module Prop = Symbad_mc.Prop

type analysis = {
  nl : Netlist.t;
  env : (string * VD.t) list;  (* per-register fixpoint value *)
  xregs : string list;  (* registers modelled as X after reset *)
}

let reg_value a name = List.assoc_opt name a.env
(* Structural soundness: the netlist [Netlist.make] would accept.  The
   syntactic rules own everything else; interpreting a malformed
   netlist would only cascade their findings. *)
let structurally_sound nl =
  match
    Netlist.make ~name:(Netlist.name nl) ~inputs:(Netlist.inputs nl)
      ~registers:(Netlist.registers nl) ~outputs:(Netlist.outputs nl)
  with
  | _ -> true
  | exception _ -> false

exception Unresolved

(* Abstract evaluation of an expression under a register environment.
   Combinational nets (output names read as [Reg], the SSA idiom) are
   expanded in place; primed register reads (properties) resolve to the
   register's fixpoint value, which is closed under the transition so
   the prime is absorbed soundly.  [hook] observes every
   binop with its operand expressions and abstract values — but not
   inside expanded comb nets, whose arithmetic is attributed to their
   own site. *)
let rec eval ?hook nl env visited (e : Expr.t) : VD.t =
  match e with
  | Expr.Const b -> VD.const b
  | Expr.Input n -> (
      match Netlist.input_width n nl with
      | Some w -> VD.top ~width:w
      | None -> raise Unresolved)
  | Expr.Reg n -> (
      let n = Netlist_rules.base_name n in
      match List.assoc_opt n env with
      | Some v -> v
      | None -> (
          match Netlist.find_output nl n with
          | Some e' ->
              if List.mem n visited then raise Unresolved
              else eval nl env (n :: visited) e'
          | None -> raise Unresolved))
  | Expr.Unop (Expr.Not, a) -> VD.lognot (eval ?hook nl env visited a)
  | Expr.Unop (Expr.Neg, a) -> VD.neg (eval ?hook nl env visited a)
  | Expr.Binop (op, a, b) ->
      let va = eval ?hook nl env visited a in
      let vb = eval ?hook nl env visited b in
      (match hook with Some h -> h op a b va vb | None -> ());
      (match op with
      | Expr.Add -> VD.add va vb
      | Expr.Sub -> VD.sub va vb
      | Expr.Mul -> VD.mul va vb
      | Expr.And -> VD.logand va vb
      | Expr.Or -> VD.logor va vb
      | Expr.Xor -> VD.logxor va vb
      | Expr.Eq -> VD.eq va vb
      | Expr.Ult -> VD.ult va vb
      | Expr.Ule -> VD.ule va vb)
  | Expr.Mux (s, t, f) ->
      let vs = eval ?hook nl env visited s in
      let vt = eval ?hook nl env visited t in
      let vf = eval ?hook nl env visited f in
      VD.mux vs vt vf
  | Expr.Slice (a, hi, lo) -> VD.slice ~hi ~lo (eval ?hook nl env visited a)
  | Expr.Concat (a, b) ->
      VD.concat (eval ?hook nl env visited a) (eval ?hook nl env visited b)

(* Iterations of plain join before widening kicks in; enough for small
   exact sets to close, few enough that intervals converge quickly. *)
let widen_after = 8
let max_iterations = 64

let analyze nl =
  if not (structurally_sound nl) then None
  else
    let regs = Netlist.registers nl in
    let xregs = Netlist_rules.unreset_registers nl in
    let init_of (r : Netlist.register) =
      if List.mem r.Netlist.name xregs then VD.x ~width:r.Netlist.width
      else VD.const r.Netlist.init
    in
    let env0 = List.map (fun (r : Netlist.register) -> (r.Netlist.name, init_of r)) regs in
    let all_top () =
      List.map
        (fun (r : Netlist.register) ->
          ( r.Netlist.name,
            if List.mem r.Netlist.name xregs then VD.x ~width:r.Netlist.width
            else VD.top ~width:r.Netlist.width ))
        regs
    in
    let step ~widen env =
      List.map
        (fun (r : Netlist.register) ->
          let cur = List.assoc r.Netlist.name env in
          let next =
            try eval nl env [] r.Netlist.next
            with Unresolved -> VD.top ~width:r.Netlist.width
          in
          ( r.Netlist.name,
            if widen then VD.widen ~prev:cur ~next
            else VD.join cur next ))
        regs
    in
    let rec iterate i env =
      let env' = step ~widen:(i >= widen_after) env in
      if List.for_all2 (fun (_, a) (_, b) -> VD.equal a b) env env' then env
      else if i >= max_iterations then all_top ()
      else iterate (i + 1) env'
    in
    Some { nl; env = iterate 0 env0; xregs }

(* --- net.x-prop -------------------------------------------------------- *)

let rule_x_prop (ctx : Netlist_rules.ctx) a =
  if a.xregs = [] then []
  else
    let mk = Netlist_rules.diag ctx ~rule:"net.x-prop" ~severity:D.Warning in
    (* a value becomes observable at an output or a property *)
    let observable =
      List.filter
        (fun (kind, _, _) -> kind <> Netlist_rules.Next_state)
        (Netlist_rules.sites ctx)
    in
    List.filter_map
      (fun (_, loc, e) ->
        match eval a.nl a.env [] e with
        | exception Unresolved -> None
        | v when VD.is_poison v ->
            let in_cone = Netlist_rules.cone a.nl ~through_regs:true [ e ] in
            let sources =
              List.filter (fun r -> Hashtbl.mem in_cone r) a.xregs
            in
            Some
              (mk ~location:loc
                 ~hint:
                   "cover the register with the reset or give it a \
                    defined load path"
                 (Printf.sprintf
                    "may be X after reset: uninitialized register%s %s in \
                     its cone"
                    (if List.length sources = 1 then "" else "s")
                    (String.concat ", " sources)))
        | _ -> None)
      observable

(* --- net.const-reg ----------------------------------------------------- *)

let const_reg_message name v =
  Printf.sprintf "register '%s' provably holds %d in every reachable cycle"
    name v

(* Each finding carries its constancy claim: the register equals its
   constant in every reachable state. *)
let rule_const_reg (ctx : Netlist_rules.ctx) a =
  let mk = Netlist_rules.diag ctx ~rule:"net.const-reg" ~severity:D.Info in
  List.filter_map
    (fun (r : Netlist.register) ->
      match VD.is_const (List.assoc r.Netlist.name a.env) with
      | Some v ->
          Some
            ( mk
                ~location:("register " ^ r.Netlist.name)
                ~hint:
                  "fold the constant into its readers or drive it with \
                   varying data"
                (const_reg_message r.Netlist.name v),
              Some
                (Prop.make
                   ~name:("lint.const-reg." ^ r.Netlist.name)
                   (Expr.eq (Expr.reg r.Netlist.name)
                      (Expr.const ~width:r.Netlist.width v))) )
      | None -> None)
    (Netlist.registers a.nl)

(* --- net.unreachable-state --------------------------------------------- *)

let rule_unreachable_state (ctx : Netlist_rules.ctx) a =
  let mk =
    Netlist_rules.diag ctx ~rule:"net.unreachable-state"
      ~severity:D.Warning
  in
  let seen = Hashtbl.create 8 in
  let scan (_, loc, e) =
    let finds = ref [] in
    let rec go (e : Expr.t) =
      (match e with
      | Expr.Binop (Expr.Eq, Expr.Reg r, Expr.Const c)
      | Expr.Binop (Expr.Eq, Expr.Const c, Expr.Reg r) -> (
          let rn = Netlist_rules.base_name r in
          match List.assoc_opt rn a.env with
          | Some v when not (VD.mem (Bitvec.to_int c) v) ->
              let key = (loc, rn, Bitvec.to_int c) in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.replace seen key ();
                finds :=
                  mk ~location:loc
                    ~hint:
                      "remove the dead state or fix the transition meant \
                       to reach it"
                    (Printf.sprintf
                       "state test '%s == %d' can never be true: \
                        reachable values %s"
                       rn (Bitvec.to_int c) (VD.to_string v))
                  :: !finds
              end
          | _ -> ())
      | _ -> ());
      match e with
      | Expr.Const _ | Expr.Input _ | Expr.Reg _ -> ()
      | Expr.Unop (_, x) | Expr.Slice (x, _, _) -> go x
      | Expr.Binop (_, x, y) | Expr.Concat (x, y) ->
          go x;
          go y
      | Expr.Mux (x, y, z) ->
          go x;
          go y;
          go z
    in
    go e;
    List.rev !finds
  in
  List.concat_map scan (Netlist_rules.sites ctx)

(* --- net.range --------------------------------------------------------- *)

type range_site = {
  loc : string;
  idx : int;  (* nth arithmetic node of the site, DFS order *)
  op : Expr.binop;
  lhs : Expr.t;
  rhs : Expr.t;
  va : VD.t;
  vb : VD.t;
  op_width : int;
}

let op_name = function
  | Expr.Add -> "add"
  | Expr.Sub -> "sub"
  | Expr.Mul -> "mul"
  | _ -> assert false

let op_symbol = function
  | Expr.Add -> "+"
  | Expr.Sub -> "-"
  | Expr.Mul -> "*"
  | _ -> assert false

let range_message rs =
  Printf.sprintf "%s #%d may wrap at width %d: %s %s %s" (op_name rs.op)
    rs.idx rs.op_width (VD.to_string rs.va) (op_symbol rs.op)
    (VD.to_string rs.vb)

(* The arithmetic that may wrap, in site order.  Properties are left
   out: arithmetic inside a property is the property author widening on
   purpose. *)
let range_sites a ctx =
  let value_sites =
    List.filter
      (fun (kind, _, _) -> kind <> Netlist_rules.Property)
      (Netlist_rules.sites ctx)
  in
  List.concat_map
    (fun (_, loc, e) ->
      let acc = ref [] and idx = ref 0 in
      let hook op lhs rhs va vb =
        match op with
        | Expr.Add | Expr.Sub | Expr.Mul ->
            incr idx;
            let wrap =
              match op with
              | Expr.Add -> VD.add_may_wrap va vb
              | Expr.Sub -> VD.sub_may_wrap va vb
              | _ -> VD.mul_may_wrap va vb
            in
            if wrap then
              acc :=
                {
                  loc;
                  idx = !idx;
                  op;
                  lhs;
                  rhs;
                  va;
                  vb;
                  op_width = VD.width va;
                }
                :: !acc
        | _ -> ()
      in
      (try ignore (eval ~hook a.nl a.env [] e) with Unresolved -> ());
      List.rev !acc)
    value_sites

(* Replace comb-net reads with their driving expressions so the
   obligation formula is over registers and inputs only — the model
   checker does not resolve output names. *)
let rec inline nl (e : Expr.t) : Expr.t =
  match e with
  | Expr.Reg n -> (
      match Netlist.find_register nl (Netlist_rules.base_name n) with
      | Some _ -> e
      | None -> (
          match Netlist.find_output nl n with
          | Some e' -> inline nl e'
          | None -> e))
  | e -> Expr.map (inline nl) e

let zext k e = Expr.concat (Expr.const ~width:k 0) e

(* The no-wrap invariant of one arithmetic site, when it fits the word
   size: add — the widened sum's carry bit is 0; sub — no borrow; mul
   — the double-width product's high half is 0. *)
let range_obligation_formula nl rs =
  let w = rs.op_width in
  let a = inline nl rs.lhs and b = inline nl rs.rhs in
  match rs.op with
  | Expr.Add when w + 1 <= Bitvec.max_width ->
      Some
        (Expr.eq
           (Expr.slice (Expr.add (zext 1 a) (zext 1 b)) ~hi:w ~lo:w)
           (Expr.const ~width:1 0))
  | Expr.Sub -> Some (Expr.ule b a)
  | Expr.Mul when 2 * w <= Bitvec.max_width ->
      Some
        (Expr.eq
           (Expr.slice (Expr.mul (zext w a) (zext w b)) ~hi:((2 * w) - 1) ~lo:w)
           (Expr.const ~width:w 0))
  | _ -> None

let rule_range (ctx : Netlist_rules.ctx) a =
  let mk = Netlist_rules.diag ctx ~rule:"net.range" ~severity:D.Warning in
  List.map
    (fun rs ->
      ( mk ~location:rs.loc
          ~hint:
            "widen the datapath, guard the operation, or discharge the \
             no-wrap obligation with --escalate"
          (range_message rs),
        Option.map
          (Prop.make ~name:(Printf.sprintf "lint.range.%s.%d" rs.loc rs.idx))
          (range_obligation_formula a.nl rs) ))
    (range_sites a ctx)
