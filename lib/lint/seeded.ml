(* Seeded-defect fixtures: for every rule, one target that must fire
   it and one clean counterpart that must not.  Built with
   [Netlist.make_unchecked] where the defect is one [Netlist.make]
   would reject — representing such netlists is the whole point of the
   lint.  The [demo] netlist combines the three acceptance defects
   (combinational loop, width mismatch, multiply-driven net) for the
   CLI walkthrough. *)

module Expr = Symbad_hdl.Expr
module Bitvec = Symbad_hdl.Bitvec
module Netlist = Symbad_hdl.Netlist
module Ast = Symbad_symbc.Ast
module Ci = Symbad_symbc.Config_info
module Cfg = Symbad_symbc.Cfg

let reg name width init next = { Netlist.name; width; init; next }
let z w = Bitvec.zero ~width:w
let c ~width v = Expr.const ~width v

(* --- netlist fixtures --------------------------------------------------- *)

(* Zero-extend by one bit: the explicit-widening idiom net.range asks
   for — the widened add provably cannot wrap, and the slice back down
   is a visible (intentional) truncation, not an arithmetic surprise. *)
let widening_add a b ~width =
  let zext e = Expr.concat (c ~width:1 0) e in
  Expr.slice (Expr.add (zext a) (zext b)) ~hi:(width - 1) ~lo:0

(* A well-formed 4-bit accumulator every clean variant derives from.
   The modulo-16 accumulation is written with the explicit-widening
   idiom so the semantic rules see the truncation is deliberate. *)
let clean =
  let acc = Expr.reg "acc" and en = Expr.input "en" and d = Expr.input "d" in
  Netlist.make ~name:"seed_clean"
    ~inputs:[ ("en", 1); ("d", 4) ]
    ~registers:
      [ reg "acc" 4 (z 4) (Expr.mux en (widening_add acc d ~width:4) acc) ]
    ~outputs:[ ("acc", acc) ]

(* net.width: 8-bit next-state expression into a 4-bit register. *)
let width_mismatch =
  let acc = Expr.reg "acc" in
  Netlist.make_unchecked ~name:"seed_width"
    ~inputs:[ ("d", 8) ]
    ~registers:
      [ reg "acc" 4 (z 4) (Expr.add (Expr.concat (c ~width:4 0) acc) (Expr.input "d")) ]
    ~outputs:[ ("acc", acc) ]

(* net.undriven: output reads a net nothing drives. *)
let undriven =
  Netlist.make_unchecked ~name:"seed_undriven"
    ~inputs:[ ("d", 4) ]
    ~registers:[]
    ~outputs:[ ("q", Expr.add (Expr.input "d") (Expr.reg "ghost")) ]

(* net.multi-driven: two registers share one name. *)
let multi_driven =
  Netlist.make_unchecked ~name:"seed_multi"
    ~inputs:[ ("d", 4) ]
    ~registers:
      [
        reg "x" 4 (z 4) (Expr.input "d");
        reg "x" 4 (z 4) (Expr.not_ (Expr.input "d"));
      ]
    ~outputs:[ ("x", Expr.reg "x") ]

(* net.comb-loop: two combinational nets feed each other. *)
let comb_loop =
  Netlist.make_unchecked ~name:"seed_loop"
    ~inputs:[ ("d", 1) ]
    ~registers:[]
    ~outputs:
      [
        ("a", Expr.and_ (Expr.input "d") (Expr.reg "b"));
        ("b", Expr.not_ (Expr.reg "a"));
      ]

(* net.unused: an input and a register outside every cone. *)
let unused =
  let acc = Expr.reg "acc" in
  Netlist.make ~name:"seed_unused"
    ~inputs:[ ("d", 4); ("nc", 1) ]
    ~registers:
      [
        reg "acc" 4 (z 4) (Expr.add acc (Expr.input "d"));
        reg "orphan" 4 (z 4) (Expr.reg "orphan");
      ]
    ~outputs:[ ("acc", acc) ]

(* net.dead-logic: a constant mux selector. *)
let dead_logic =
  let d = Expr.input "d" in
  Netlist.make ~name:"seed_dead"
    ~inputs:[ ("d", 4) ]
    ~registers:[]
    ~outputs:[ ("q", Expr.mux (c ~width:1 1) d (Expr.not_ d)) ]

(* net.no-reset: an explicit rst input that one register ignores. *)
let no_reset =
  let a = Expr.reg "a" and b = Expr.reg "b" and rst = Expr.input "rst" in
  let d = Expr.input "d" in
  Netlist.make ~name:"seed_noreset"
    ~inputs:[ ("rst", 1); ("d", 4) ]
    ~registers:
      [
        reg "a" 4 (z 4) (Expr.mux rst (z 4 |> fun v -> Expr.Const v) d);
        reg "b" 4 (z 4) (Expr.add b d);
      ]
    ~outputs:[ ("a", a); ("b", b) ]

(* net.x-prop: register [sh] ignores the explicit reset, so it is X
   after reset, and output [q] exposes it.  Register [a] is covered. *)
let x_prop =
  let a = Expr.reg "a" and sh = Expr.reg "sh" in
  let rst = Expr.input "rst" and d = Expr.input "d" in
  Netlist.make ~name:"seed_xprop"
    ~inputs:[ ("rst", 1); ("d", 4) ]
    ~registers:
      [
        reg "a" 4 (z 4) (Expr.mux rst (c ~width:4 0) d);
        reg "sh" 4 (z 4) d;
      ]
    ~outputs:[ ("a", a); ("q", sh) ]

(* net.range: an unguarded 4-bit accumulation — the abstract value of
   [acc] widens to the full range, so the add can wrap. *)
let range =
  let acc = Expr.reg "acc" and d = Expr.input "d" in
  Netlist.make ~name:"seed_range"
    ~inputs:[ ("d", 4) ]
    ~registers:[ reg "acc" 4 (z 4) (Expr.add acc d) ]
    ~outputs:[ ("acc", acc) ]

(* net.unreachable-state: [st] toggles between 0 and 2 (xor with 2),
   so the state test against 5 is dead.  Xor is exact over small value
   sets, which keeps the reachable set {0, 2} precise. *)
let unreachable_state =
  let st = Expr.reg "st" in
  Netlist.make ~name:"seed_unreach" ~inputs:[]
    ~registers:[ reg "st" 3 (z 3) (Expr.xor st (c ~width:3 2)) ]
    ~outputs:[ ("dead", Expr.eq st (c ~width:3 5)) ]

(* net.const-reg: [k] reloads itself, so it provably holds its reset
   value forever. *)
let const_reg =
  let k = Expr.reg "k" and d = Expr.input "d" in
  Netlist.make ~name:"seed_const"
    ~inputs:[ ("d", 4) ]
    ~registers:[ reg "k" 4 (Bitvec.make ~width:4 5) k ]
    ~outputs:[ ("k", k); ("masked", Expr.and_ k d) ]

(* The escalation fixture: two net.range warnings with opposite
   verdicts.  The accumulator genuinely wraps (the model checker finds
   a two-frame counterexample — disproved, promoted to error); the
   output [s = d + ~d] is the all-ones constant 15 at width 4, so its
   no-wrap obligation is proved and the warning demotes to info. *)
let escalation =
  let acc = Expr.reg "acc" and d = Expr.input "d" in
  Netlist.make ~name:"seed_escalate"
    ~inputs:[ ("d", 4) ]
    ~registers:[ reg "acc" 4 (z 4) (Expr.add acc d) ]
    ~outputs:[ ("acc", acc); ("s", Expr.add d (Expr.not_ d)) ]

(* The acceptance demo: a combinational loop, a width mismatch and a
   multiply-driven net in one netlist. *)
let demo =
  let acc = Expr.reg "acc" in
  Netlist.make_unchecked ~name:"demo"
    ~inputs:[ ("en", 1); ("d", 8) ]
    ~registers:
      [
        (* width mismatch: 8-bit d into the 4-bit acc *)
        reg "acc" 4 (z 4) (Expr.input "d");
        (* multiply-driven: second declaration of acc *)
        reg "acc" 4 (z 4) (Expr.reg "acc");
      ]
    ~outputs:
      [
        ("acc", acc);
        (* combinational loop: p and q feed each other *)
        ("p", Expr.and_ (Expr.input "en") (Expr.reg "q"));
        ("q", Expr.not_ (Expr.reg "p"));
      ]

let fixtures =
  [
    ("net.width", width_mismatch);
    ("net.undriven", undriven);
    ("net.multi-driven", multi_driven);
    ("net.comb-loop", comb_loop);
    ("net.unused", unused);
    ("net.dead-logic", dead_logic);
    ("net.no-reset", no_reset);
    ("net.x-prop", x_prop);
    ("net.range", range);
    ("net.unreachable-state", unreachable_state);
    ("net.const-reg", const_reg);
  ]

(* --- program fixtures --------------------------------------------------- *)

let ci =
  Ci.make
    ~fpga_functions:[ "edge"; "erosion" ]
    ~configurations:[ ("c_edge", [ "edge" ]); ("c_erosion", [ "erosion" ]) ]

let program_clean =
  [ Ast.reconfig "c_edge"; Ast.call "edge"; Ast.reconfig "c_erosion";
    Ast.call "erosion" ]

(* cfg.never-loaded: the call's context is loaded on no path. *)
let program_never_loaded = [ Ast.reconfig "c_erosion"; Ast.call "edge" ]

(* cfg.maybe-unloaded: loaded on one branch only — dynamic SymbC's
   counterexample direction, a warning here. *)
let program_maybe_unloaded =
  [ Ast.if_ [ Ast.reconfig "c_edge" ] []; Ast.call "edge" ]

(* cfg.unknown-config. *)
let program_unknown_config = [ Ast.reconfig "c_typo"; Ast.call "edge" ]

(* cfg.redundant-config: back-to-back loads of the same context. *)
let program_redundant =
  [ Ast.reconfig "c_edge"; Ast.reconfig "c_edge"; Ast.call "edge" ]

(* cfg.unreachable-config: [Ast.build] cannot produce unreachable
   nodes (branches are nondeterministic), so the fixture is a
   hand-built CFG with an orphaned reconfiguration edge. *)
let cfg_unreachable =
  {
    Cfg.entry = 0;
    exit_ = 1;
    nnodes = 4;
    edges =
      [
        { Cfg.src = 0; dst = 1; action = Cfg.Nop };
        { Cfg.src = 2; dst = 3; action = Cfg.Reconfig "c_edge" };
      ];
  }

let program_fixtures =
  [
    ("cfg.never-loaded", program_never_loaded);
    ("cfg.maybe-unloaded", program_maybe_unloaded);
    ("cfg.unknown-config", program_unknown_config);
    ("cfg.redundant-config", program_redundant);
  ]

(* --- tenant fixtures ---------------------------------------------------- *)

(* sched.context-conflict: each tenant is solo-clean, but interleaved
   on the one fabric either can reload between the other's
   reconfiguration and call. *)
let tenants_conflict =
  [
    ("edge-tenant", [ Ast.reconfig "c_edge"; Ast.call "edge" ]);
    ("erosion-tenant", [ Ast.reconfig "c_erosion"; Ast.call "erosion" ]);
  ]

(* Clean: both tenants use the same configuration, so any interleaving
   leaves a providing context loaded. *)
let tenants_clean =
  [
    ("edge-a", [ Ast.reconfig "c_edge"; Ast.call "edge" ]);
    ("edge-b", [ Ast.reconfig "c_edge"; Ast.call "edge" ]);
  ]

(* sched.wcrt: a reconfiguration inside a nondeterministic loop has no
   static bound. *)
let tenant_wcrt_unbounded =
  [
    ( "looping-tenant",
      [ Ast.while_ [ Ast.reconfig "c_edge"; Ast.call "edge" ] ] );
  ]

(* Bounded: two reconfigurations on the longest path — 2 ms at the
   default cost, admitted iff the deadline covers it. *)
let tenant_wcrt_straight = [ ("straight-tenant", program_clean) ]
