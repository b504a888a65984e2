(* An incremental verification session: one persistent solver pair per
   (netlist, property), frames unrolled on demand, each bound posed as a
   retractable query through an activation literal (see the convention
   in Symbad_sat.Solver.add_clause).  Learned clauses survive across
   bounds, so bound k+1 starts from everything the solver derived while
   closing bounds 0..k — this is what makes the level-4 BMC loop
   incremental instead of re-bit-blasting the netlist per bound.

   Two sub-solvers back one session:

   - the BASE instance unrolls from reset.  Bound k adds a fresh
     activation variable [a], the guarded clause [-a \/ -P@k], and asks
     [solve ~assumptions:[a]].  Unsat retires the guard ([-a]) and
     asserts the now-proved [P@k] as a unit, strengthening every later
     bound and keeping a record that bound k is closed.

   - the STEP instance unrolls from a free initial state.  The inductive
     step at k is pure assumption work — [P@0 .. P@k-1, -P@k] — so
     nothing is ever asserted and the same instance serves every k,
     k = 0 included: [-P@0] alone asks whether P fails over one
     transition from any state, and Unsat proves it outright.

   Gates are hash-consed (Symbad_sat.Tseitin), so re-blasting the
   property at a frame returns the literal of its first blast: a
   repeated query allocates no variables (asserted by the nvars-drift
   test). *)

module Solver = Symbad_sat.Solver
module Unroll = Symbad_hdl.Unroll
module Netlist = Symbad_hdl.Netlist
module Obs = Symbad_obs.Obs
module Json = Symbad_obs.Json
module Gov = Symbad_gov.Gov

type sub = { solver : Solver.t; unroll : Unroll.t }

type t = {
  nl : Netlist.t;
  prop : Prop.t;
  mutable base : sub option;
  mutable step : sub option;
  (* bounds the base instance has closed (P@k proved): re-posing one
     must not re-solve — the guard clause is gone once P@k is a unit *)
  proved : (int, unit) Hashtbl.t;
}

let create nl prop =
  let prop = Prop.validate nl prop in
  if Obs.enabled () then Obs.incr_counter "mc.sessions";
  { nl; prop; base = None; step = None; proved = Hashtbl.create 16 }


let make_sub ~init nl =
  let solver = Solver.create 0 in
  { solver; unroll = Unroll.create ~init solver nl }

let base_sub t =
  match t.base with
  | Some s -> s
  | None ->
      let s = make_sub ~init:Unroll.Reset t.nl in
      t.base <- Some s;
      s

let step_sub t =
  match t.step with
  | Some s -> s
  | None ->
      let s = make_sub ~init:Unroll.Free t.nl in
      t.step <- Some s;
      s

(* Frames needed to anchor the property at frame [i]: a step property
   reads frame [i + 1] and the trace convention keeps one successor
   frame around in either case (mirrors the historical encoding, which
   unrolled to [k + 1] for invariants and [k + 2] for step props). *)
let frames_for prop i = if Prop.is_step prop then i + 2 else i + 1

let prop_lit t sub i =
  Unroll.unroll_to sub.unroll (frames_for t.prop i);
  if Prop.is_step t.prop then
    Unroll.bool_lit_step sub.unroll i (Prop.formula t.prop)
  else Unroll.bool_lit sub.unroll i (Prop.formula t.prop)

let trace_span prop k = if Prop.is_step prop then k + 1 else k

let extract_trace sub upto nl =
  List.init (upto + 1) (fun i ->
      {
        Trace.inputs =
          List.map
            (fun (n, _) -> (n, Unroll.input_value sub.solver sub.unroll i n))
            (Netlist.inputs nl);
        regs =
          List.map
            (fun (r : Netlist.register) ->
              ( r.Netlist.name,
                Unroll.reg_value sub.solver sub.unroll i r.Netlist.name ))
            (Netlist.registers nl);
      })

type base_result = Base_holds | Base_cex of Trace.t | Base_unknown

let check_bound ?gov t k =
  if k < 0 then invalid_arg "Session.check_bound: negative bound";
  if Hashtbl.mem t.proved k then Base_holds
  else
    Obs.span ~cat:"mc"
      ~args:
        [
          ("module", Json.Str (Netlist.name t.nl));
          ("property", Json.Str (Prop.name t.prop));
          ("bound", Json.Int k);
        ]
      "bmc.bound"
      (fun () ->
        let sub = base_sub t in
        let pl = prop_lit t sub k in
        let act = Solver.new_var sub.solver in
        Solver.add_clause sub.solver [ -act; -pl ];
        match Solver.solve ~assumptions:[ act ] ?gov sub.solver with
        | Solver.Sat ->
            (* read the model before any add_clause backtracks it away *)
            let tr = extract_trace sub (trace_span t.prop k) t.nl in
            Solver.add_clause sub.solver [ -act ];
            Base_cex tr
        | Solver.Unsat ->
            (* the guard is spent; P@k is now a theorem of the instance
               and asserting it seeds learning for every later bound *)
            Solver.add_clause sub.solver [ -act ];
            Solver.add_clause sub.solver [ pl ];
            Hashtbl.replace t.proved k ();
            Base_holds
        | Solver.Unknown ->
            Solver.add_clause sub.solver [ -act ];
            Base_unknown)

(* BMC: bounds 0..depth in ascending order on the one base instance.
   The governor is polled before each bound, so an exhausted one stops
   the walk without unrolling another frame. *)
let bmc ?gov t ~depth =
  let rec at k =
    if k > depth then Base_holds
    else if Option.fold ~none:false ~some:Gov.out_of_budget gov then
      Base_unknown
    else
      match check_bound ?gov t k with
      | Base_holds -> at (k + 1)
      | (Base_cex _ | Base_unknown) as r -> r
  in
  at 0

type step_result = Inductive | Cti of Trace.t | Step_unknown

let induction ?gov t k =
  if k < 0 then invalid_arg "Session.induction: negative k";
  Obs.span ~cat:"mc"
    ~args:
      [
        ("module", Json.Str (Netlist.name t.nl));
        ("property", Json.Str (Prop.name t.prop));
        ("k", Json.Int k);
      ]
    "bmc.induction"
    (fun () ->
      let sub = step_sub t in
      (* pure assumption query: P@0..k-1 and -P@k, nothing asserted, so
         the one free-initial-state instance serves every k *)
      let assumptions =
        List.init k (fun i -> prop_lit t sub i) @ [ -(prop_lit t sub k) ]
      in
      match Solver.solve ~assumptions ?gov sub.solver with
      | Solver.Unsat -> Inductive
      | Solver.Sat -> Cti (extract_trace sub (trace_span t.prop k) t.nl)
      | Solver.Unknown -> Step_unknown)

let base_nvars t =
  match t.base with Some s -> Solver.nvars s.solver | None -> 0

let step_nvars t =
  match t.step with Some s -> Solver.nvars s.solver | None -> 0
