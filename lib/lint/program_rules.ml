(* The reconfiguration analyzer family: static dataflow over the
   mini-C CFG, no simulation.

   The rules read SymbC's may-analysis ([Absint.may_states], computed
   once per run by [Lint] and handed to each rule): per CFG node, the
   set of FPGA states — unloaded or one configuration loaded —
   that can hold when control reaches it.  [Reconfig c] is a strong
   update (the whole fabric is reloaded, so the post-state is exactly
   [{Loaded c}]); every other action is the identity.  Because
   reconfiguration replaces the state wholesale, a singleton may-set is
   simultaneously the must-set, which is what makes the redundancy rule
   exact.

   The may/must gap is the documented warning direction: a call whose
   context is loaded on only *some* paths is a warning here (dynamic
   SymbC decides), never a silent pass. *)

module Cfg = Symbad_symbc.Cfg
module Ci = Symbad_symbc.Config_info
module Check = Symbad_symbc.Check
module Absint = Symbad_symbc.Absint
module States = Absint.State_set
module D = Diagnostic

type ctx = { ci : Ci.t; cfg : Cfg.t; target : string }

let context ~target ci cfg = { ci; cfg; target }

let diag ctx ?hint ~rule ~severity ~location message =
  D.make ?hint ~rule ~severity ~target:ctx.target ~location message

let edge_loc (e : Cfg.edge) =
  Printf.sprintf "edge %d->%d (%s)" e.Cfg.src e.Cfg.dst
    (Cfg.action_to_string e.Cfg.action)

(* Deterministic edge order for reporting. *)
let sorted_edges (cfg : Cfg.t) =
  List.sort
    (fun (a : Cfg.edge) (b : Cfg.edge) ->
      compare
        (a.Cfg.src, a.Cfg.dst, Cfg.action_to_string a.Cfg.action)
        (b.Cfg.src, b.Cfg.dst, Cfg.action_to_string b.Cfg.action))
    cfg.Cfg.edges

(* Reachable nodes have non-empty sets. *)
let may_states (cfg : Cfg.t) =
  Absint.may_states ~nnodes:cfg.Cfg.nnodes ~entry:cfg.Cfg.entry
    (Cfg.successors cfg)

let state_label = function Check.Unloaded -> "unloaded" | Check.Loaded c -> c

(* The states of [s] whose loaded configuration provides [f]; an
   unknown configuration provides nothing. *)
let providers ci f s =
  States.filter
    (function
      | Check.Loaded c ->
          Ci.has_configuration ci c && Ci.provides ci ~config:c f
      | Check.Unloaded -> false)
    s

(* --- cfg.never-loaded / cfg.maybe-unloaded ----------------------------- *)

let call_findings ctx may =
  List.filter_map
    (fun (e : Cfg.edge) ->
      match e.Cfg.action with
      | Cfg.Call f when Ci.is_fpga_function ctx.ci f ->
          let s = may.(e.Cfg.src) in
          if States.is_empty s then None (* unreachable: not a call defect *)
          else
            let good = providers ctx.ci f s in
            if States.is_empty good then Some (`Never, e, f, s)
            else if States.cardinal good < States.cardinal s then
              Some (`Maybe, e, f, s)
            else None
      | _ -> None)
    (sorted_edges ctx.cfg)

let rule_never_loaded ctx may =
  List.filter_map
    (fun finding ->
      match finding with
      | `Never, e, f, _ ->
          Some
            (diag ctx ~rule:"cfg.never-loaded" ~severity:D.Error
               ~location:(edge_loc e)
               ~hint:
                 (Printf.sprintf
                    "insert a reconfiguration loading a context that provides \
                     '%s' before the call"
                    f)
               (Printf.sprintf
                  "call to FPGA function '%s': no path loads a providing \
                   configuration"
                  f))
      | _ -> None)
    (call_findings ctx may)

let rule_maybe_unloaded ctx may =
  List.filter_map
    (fun finding ->
      match finding with
      | `Maybe, e, f, s ->
          Some
            (diag ctx ~rule:"cfg.maybe-unloaded" ~severity:D.Warning
               ~location:(edge_loc e)
               ~hint:"dynamic SymbC decides; reconfigure on every path to fix"
               (Printf.sprintf
                  "call to FPGA function '%s' reachable with states {%s}; not \
                   all provide it"
                  f
                  (String.concat ", "
                     (List.map state_label (States.elements s)))))
      | _ -> None)
    (call_findings ctx may)

(* --- cfg.unknown-config ------------------------------------------------ *)

let rule_unknown_config ctx =
  List.filter_map
    (fun (e : Cfg.edge) ->
      match e.Cfg.action with
      | Cfg.Reconfig c when not (Ci.has_configuration ctx.ci c) ->
          Some
            (diag ctx ~rule:"cfg.unknown-config" ~severity:D.Error
               ~location:(edge_loc e)
               ~hint:"declare it in the configuration information"
               (Printf.sprintf "reconfiguration loads unknown configuration \
                                '%s'" c))
      | _ -> None)
    (sorted_edges ctx.cfg)

(* --- cfg.redundant-config ---------------------------------------------- *)

let rule_redundant_config ctx may =
  List.filter_map
    (fun (e : Cfg.edge) ->
      match e.Cfg.action with
      | Cfg.Reconfig c
        when States.equal may.(e.Cfg.src) (States.singleton (Check.Loaded c)) ->
          Some
            (diag ctx ~rule:"cfg.redundant-config" ~severity:D.Warning
               ~location:(edge_loc e)
               ~hint:"drop the call; reconfiguration is not free"
               (Printf.sprintf
                  "configuration '%s' is already loaded on every path here" c))
      | _ -> None)
    (sorted_edges ctx.cfg)

(* --- cfg.unreachable-config -------------------------------------------- *)

let rule_unreachable_config ctx may =
  List.filter_map
    (fun (e : Cfg.edge) ->
      match e.Cfg.action with
      | Cfg.Reconfig c when States.is_empty may.(e.Cfg.src) ->
          Some
            (diag ctx ~rule:"cfg.unreachable-config" ~severity:D.Warning
               ~location:(edge_loc e)
               ~hint:"dead code: remove it or fix the control flow"
               (Printf.sprintf "unreachable reconfiguration of '%s'" c))
      | _ -> None)
    (sorted_edges ctx.cfg)
