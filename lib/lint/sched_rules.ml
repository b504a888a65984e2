(* The multi-tenant schedule analyzer family.

   Tenants are reconfiguration programs admitted to one shared fabric.
   Solo, each may be clean under SymbC's may-analysis
   ([Absint.may_states], which [Program_rules] reads too); the hazard
   this family adds is *interleaving*: between a tenant's
   reconfiguration and its FPGA call, another tenant may reload the
   fabric.  The interference analysis runs the same fixpoint over the
   product of two CFGs — nodes are pairs, edges interleave one step of
   either tenant, the fabric state is shared and [Reconfig] is still a
   strong update — so a call that is provably loaded solo can become
   maybe-unloaded in the product, which is exactly the context-conflict
   finding.

   The second rule is admission-time feasibility: each tenant's
   worst-case reconfiguration time is a longest-path bound over its own
   CFG (reconfiguration edges cost, everything else is free), compared
   against the deadline the admission contract grants.  A
   reconfiguration inside a loop has no static bound and is rejected
   outright. *)

module Cfg = Symbad_symbc.Cfg
module Ci = Symbad_symbc.Config_info
module Check = Symbad_symbc.Check
module Absint = Symbad_symbc.Absint
module States = Absint.State_set
module D = Diagnostic

type ctx = {
  target : string;
  ci : Ci.t;
  tenants : (string * Cfg.t) list;
  deadline_ns : int option;  (** admission deadline; [None] disables wcrt *)
}

(* A fabric reload is dominated by bitstream transfer; 1 ms is the
   order of magnitude the paper's platform reports. *)
let reconfig_cost_ns = 1_000_000

let context ?deadline_ns ~target ci tenants =
  { target; ci; tenants; deadline_ns }

let diag ctx ?hint ~rule ~severity ~location message =
  D.make ?hint ~rule ~severity ~target:ctx.target ~location message

(* Interleaved-product may-analysis of tenants [a] and [b]: node
   (u, v) indexed as [u * b.nnodes + v], fabric state shared; a product
   edge is one step of either tenant. *)
let product_states (a : Cfg.t) (b : Cfg.t) =
  let nb = b.Cfg.nnodes in
  let succ_a = Array.init a.Cfg.nnodes (Cfg.successors a)
  and succ_b = Array.init nb (Cfg.successors b) in
  Absint.may_states ~nnodes:(a.Cfg.nnodes * nb)
    ~entry:((a.Cfg.entry * nb) + b.Cfg.entry)
    (fun node ->
      let u = node / nb and v = node mod nb in
      List.map
        (fun (e : Cfg.edge) ->
          { e with Cfg.src = node; dst = (e.Cfg.dst * nb) + v })
        succ_a.(u)
      @ List.map
          (fun (e : Cfg.edge) ->
            { e with Cfg.src = node; dst = (u * nb) + e.Cfg.dst })
          succ_b.(v))

(* --- sched.context-conflict -------------------------------------------- *)

(* FPGA-call edges of [cfg] that the *solo* analysis already certifies:
   reachable, and every may-state provides the function.  Calls the
   solo analysis flags are [cfg.never-loaded]/[cfg.maybe-unloaded]
   findings on the tenant itself, not interference. *)
let solo_clean_calls ctx (cfg : Cfg.t) =
  let solo = Program_rules.may_states cfg in
  List.filter_map
    (fun (e : Cfg.edge) ->
      match e.Cfg.action with
      | Cfg.Call f when Ci.is_fpga_function ctx.ci f ->
          let s = solo.(e.Cfg.src) in
          if
            (not (States.is_empty s))
            && States.equal (Program_rules.providers ctx.ci f s) s
          then Some (e, f)
          else None
      | _ -> None)
    (Program_rules.sorted_edges cfg)

let rule_context_conflict ctx =
  let seen = Hashtbl.create 8 in
  (* each tenant's solo fixpoint once, not once per partner *)
  let tenants =
    List.map (fun (name, cfg) -> (name, cfg, solo_clean_calls ctx cfg)) ctx.tenants
  in
  (* [at x y]: the interleaved fixpoint at node [x] of [an] and node [y]
     of [bn] *)
  let pair (an, _, calls) (bn, b, _) at =
    List.filter_map
      (fun ((e : Cfg.edge), f) ->
        (* Fabric states reachable at the call site under interleaving
           with [b], over every position [b] may occupy. *)
        let s = ref States.empty in
        for v = 0 to b.Cfg.nnodes - 1 do
          s := States.union !s (at e.Cfg.src v)
        done;
        let bad = States.diff !s (Program_rules.providers ctx.ci f !s) in
        match States.elements bad with
        | [] -> None
        | witness :: _ ->
            let c =
              match witness with
              | Check.Loaded c -> c
              | Check.Unloaded -> "(unloaded)"
            in
            let key = (an, bn, f, c) in
            if Hashtbl.mem seen key then None
            else begin
              Hashtbl.replace seen key ();
              Some
                (diag ctx ~rule:"sched.context-conflict" ~severity:D.Warning
                   ~location:(Printf.sprintf "tenants %s + %s" an bn)
                   ~hint:
                     "serialize the tenants or partition the fabric before \
                      admission"
                   (Printf.sprintf
                      "call to '%s' in '%s' may run after '%s' reconfigures \
                       the shared fabric to '%s'"
                      f an bn c))
            end)
      calls
  in
  let rec pairs = function
    | [] -> []
    | ((_, a, _) as t) :: rest ->
        List.concat_map
          (fun ((_, b, _) as u) ->
            (* one fixpoint per pair: the product of [u] and [t] is the
               transpose of this one (same entry, mirrored edges, one
               least fixpoint), so its node (y, x) is this one's (x, y) *)
            let product = product_states a b and nb = b.Cfg.nnodes in
            pair t u (fun x y -> product.((x * nb) + y))
            @ pair u t (fun y x -> product.((x * nb) + y)))
          rest
        @ pairs rest
  in
  pairs tenants

(* --- sched.wcrt -------------------------------------------------------- *)

(* Longest-path relaxation: after [nnodes] rounds every acyclic path
   has been accounted for; a round [nnodes + 1] change means a
   positive-cost cycle — a reconfiguration inside a loop — so the bound
   is unbounded. *)
let wcrt_bound (cfg : Cfg.t) =
  let minf = min_int in
  let dist = Array.make cfg.Cfg.nnodes minf in
  dist.(cfg.Cfg.entry) <- 0;
  let cost (a : Cfg.action) =
    match a with Cfg.Reconfig _ -> reconfig_cost_ns | Cfg.Nop | Cfg.Call _ -> 0
  in
  let relax_round () =
    List.fold_left
      (fun changed (e : Cfg.edge) ->
        if dist.(e.Cfg.src) = minf then changed
        else
          let d = dist.(e.Cfg.src) + cost e.Cfg.action in
          if d > dist.(e.Cfg.dst) then begin
            dist.(e.Cfg.dst) <- d;
            true
          end
          else changed)
      false cfg.Cfg.edges
  in
  let changed = ref true in
  for _ = 1 to cfg.Cfg.nnodes do
    if !changed then changed := relax_round ()
  done;
  if relax_round () then None (* positive cycle: unbounded *)
  else Some (Array.fold_left max 0 dist)

let rule_wcrt ctx =
  match ctx.deadline_ns with
  | None -> []
  | Some deadline ->
      List.filter_map
        (fun (name, cfg) ->
          let mk =
            diag ctx ~rule:"sched.wcrt" ~severity:D.Error
              ~location:("tenant " ^ name)
          in
          match wcrt_bound cfg with
          | None ->
              Some
                (mk
                   ~hint:
                     "hoist the reconfiguration out of the loop or bound the \
                      iteration count"
                   "worst-case reconfiguration time is unbounded: a \
                    reconfiguration sits inside a loop")
          | Some bound when bound > deadline ->
              Some
                (mk
                   ~hint:
                     "raise the admission deadline or drop reconfigurations \
                      from the longest path"
                   (Printf.sprintf
                      "worst-case reconfiguration time %d ns exceeds the \
                       admission deadline %d ns"
                      bound deadline))
          | Some _ -> None)
        ctx.tenants
