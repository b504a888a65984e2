(* The recovery state machine of the reconfiguration controller, as a
   level-4 netlist, with the safety/bounded-liveness properties that the
   model checker discharges.

   States: OPER (delivering service from the fabric), DETECT (a fault was
   flagged), RECOV (re-download / reload in progress, bounded tries),
   FALLBACK (fabric given up, service delivered from software).  Both
   OPER and FALLBACK are *operational*: the pipeline produces tokens.
   The checked contract is the campaign's dependability argument in
   miniature: recovery always terminates, in bounded time, in an
   operational state — there is no state from which service is lost. *)

module Expr = Symbad_hdl.Expr
module Netlist = Symbad_hdl.Netlist
module Bitvec = Symbad_hdl.Bitvec
module Prop = Symbad_mc.Prop
module Engine = Symbad_mc.Engine

let oper = 0
let detect = 1
let recov = 2
let fallback = 3

let st n = Expr.const ~width:2 n
let state = Expr.reg "state"
let tries = Expr.reg "tries"
let nonop = Expr.reg "nonop"
let in_state n = Expr.eq state (st n)

let netlist ?(max_tries = 2) () =
  if max_tries < 1 || max_tries > 3 then
    invalid_arg "Recovery.netlist: max_tries in 1..3";
  let fault = Expr.input "fault" and done_ = Expr.input "done" in
  let tmax = Expr.const ~width:2 max_tries in
  let next_state =
    Expr.mux (in_state oper)
      (Expr.mux fault (st detect) (st oper))
      (Expr.mux (in_state detect) (st recov)
         (Expr.mux (in_state recov)
            (Expr.mux done_ (st oper)
               (Expr.mux (Expr.eq tries tmax) (st fallback) (st recov)))
            (st fallback)))
  in
  let next_tries =
    Expr.mux (in_state recov)
      (Expr.mux done_
         (Expr.const ~width:2 0)
         (Expr.mux (Expr.eq tries tmax) tries
            (Expr.add tries (Expr.const ~width:2 1))))
      (Expr.const ~width:2 0)
  in
  let operational = Expr.or_ (in_state oper) (in_state fallback) in
  (* consecutive non-operational cycles observed so far; the bounded-
     liveness witness *)
  let next_nonop =
    Expr.mux operational
      (Expr.const ~width:3 0)
      (Expr.add nonop (Expr.const ~width:3 1))
  in
  Netlist.make ~name:"recovery_ctrl"
    ~inputs:[ ("fault", 1); ("done", 1) ]
    ~registers:
      [
        {
          Netlist.name = "state";
          width = 2;
          init = Bitvec.make ~width:2 oper;
          next = next_state;
        };
        {
          Netlist.name = "tries";
          width = 2;
          init = Bitvec.make ~width:2 0;
          next = next_tries;
        };
        {
          Netlist.name = "nonop";
          width = 3;
          init = Bitvec.make ~width:3 0;
          next = next_nonop;
        };
      ]
    ~outputs:
      [ ("operational", operational); ("recovering", Expr.or_ (in_state detect) (in_state recov)) ]

let properties ?(max_tries = 2) nl =
  let implies = Prop.implies and next = Prop.next in
  let tmax = Expr.const ~width:2 max_tries in
  let done_ = Expr.input "done" in
  let operational = Prop.output nl "operational" in
  [
    (* the retry counter never escapes its bound *)
    Prop.make ~name:"recovery.tries_bounded" (Expr.ule tries tmax);
    (* successful recovery returns to normal operation *)
    Prop.make_step ~name:"recovery.success_returns_oper"
      (implies (Expr.and_ (in_state recov) done_) (next (in_state oper)));
    (* exhausted recovery degrades to the software fallback, it does not
       keep spinning *)
    Prop.make_step ~name:"recovery.exhaustion_degrades"
      (implies
         (Expr.and_ (in_state recov)
            (Expr.and_ (Expr.not_ done_) (Expr.eq tries tmax)))
         (next (in_state fallback)));
    (* the fallback is absorbing: once degraded, service stays up *)
    Prop.make_step ~name:"recovery.fallback_absorbing"
      (implies (in_state fallback) (next (in_state fallback)));
    (* bounded liveness: the machine is never non-operational for more
       than DETECT + (max_tries + 1) RECOV cycles — it always returns to
       an operational state (OPER or FALLBACK) in bounded time *)
    Prop.make ~name:"recovery.operational_in_bounded_time"
      (Expr.ule nonop (Expr.const ~width:3 (max_tries + 2)));
    (* an operational state always delivers service *)
    Prop.make ~name:"recovery.service_defined"
      (Expr.eq operational
         (Expr.or_ (in_state oper) (in_state fallback)));
  ]

let check () =
  let nl = netlist () in
  Engine.check_all nl (properties nl)
