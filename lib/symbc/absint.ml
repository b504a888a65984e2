(* Abstract interpretation engine for the consistency property.

   The abstract domain is the powerset of FPGA states
   ({no configuration} + one element per configuration) ordered by
   inclusion; the transfer function of a reconfiguration edge is the
   constant singleton, every other edge is the identity; joins happen at
   CFG merge points.  A worklist fixpoint yields, per program point, the
   set of states the FPGA may be in — the same invariant the product
   reachability of {!Check} computes, obtained the way the paper
   describes ("abstract interpretation to check reconfiguration
   consistency").

   For this property the powerset domain loses no precision, so the two
   engines must agree on every program; the test suite checks that.  The
   fixpoint runs over any successor function: the reconfiguration lints
   read it over a CFG and over the interleaved product of two. *)

module State_set = Set.Make (struct
  type t = Check.fpga_state

  let compare = compare
end)

type node_invariant = { node : int; states : Check.fpga_state list }

type verdict =
  | Safe of { invariants : node_invariant list; calls_checked : int }
  | Unsafe of {
      failing_call : string;
      node : int;
      offending_states : Check.fpga_state list;
          (* reachable states in which the call is unavailable *)
    }

(* Abstract transfer along one edge. *)
let transfer action states =
  match action with
  | Cfg.Reconfig c -> State_set.singleton (Check.Loaded c)
  | Cfg.Nop | Cfg.Call _ -> states

(* Worklist fixpoint over any graph: a node is queued only when its set
   grows, so only nodes reachable from [entry] are ever visited and the
   rest keep the empty set. *)
let may_states ~nnodes ~entry successors =
  let in_states = Array.make nnodes State_set.empty in
  in_states.(entry) <- State_set.singleton Check.Unloaded;
  let worklist = Queue.create () in
  Queue.push entry worklist;
  let on_queue = Array.make nnodes false in
  on_queue.(entry) <- true;
  while not (Queue.is_empty worklist) do
    let node = Queue.pop worklist in
    on_queue.(node) <- false;
    let states = in_states.(node) in
    List.iter
      (fun (e : Cfg.edge) ->
        let out = transfer e.Cfg.action states in
        let merged = State_set.union in_states.(e.Cfg.dst) out in
        if not (State_set.equal merged in_states.(e.Cfg.dst)) then begin
          in_states.(e.Cfg.dst) <- merged;
          if not on_queue.(e.Cfg.dst) then begin
            Queue.push e.Cfg.dst worklist;
            on_queue.(e.Cfg.dst) <- true
          end
        end)
      (successors node)
  done;
  in_states

let analyze info (program : Ast.program) =
  List.iter
    (fun c ->
      if not (Config_info.has_configuration info c) then
        invalid_arg ("Absint.analyze: program loads unknown configuration " ^ c))
    (Ast.loaded_configs program);
  let cfg = Cfg.build program in
  let nnodes = cfg.Cfg.nnodes in
  let in_states =
    may_states ~nnodes ~entry:cfg.Cfg.entry (Cfg.successors cfg)
  in
  (* check every call edge against its source invariant *)
  let calls_checked = ref 0 in
  let violation = ref None in
  List.iter
    (fun (e : Cfg.edge) ->
      match e.Cfg.action with
      | Cfg.Call f when !violation = None ->
          if not (State_set.is_empty in_states.(e.Cfg.src)) then begin
            incr calls_checked;
            let offending =
              State_set.filter
                (fun s -> not (Check.call_ok info s f))
                in_states.(e.Cfg.src)
            in
            if not (State_set.is_empty offending) then
              violation :=
                Some
                  (Unsafe
                     {
                       failing_call = f;
                       node = e.Cfg.src;
                       offending_states = State_set.elements offending;
                     })
          end
      | Cfg.Call _ | Cfg.Nop | Cfg.Reconfig _ -> ())
    cfg.Cfg.edges;
  match !violation with
  | Some v -> v
  | None ->
      Safe
        {
          invariants =
            List.init nnodes (fun node ->
                { node; states = State_set.elements in_states.(node) })
            |> List.filter (fun inv -> inv.states <> []);
          calls_checked = !calls_checked;
        }

let pp_verdict fmt = function
  | Safe { invariants; calls_checked } ->
      Fmt.pf fmt "SAFE: %d program points, %d call sites"
        (List.length invariants) calls_checked
  | Unsafe { failing_call; node; offending_states } ->
      Fmt.pf fmt "UNSAFE: %s() at node %d with possible states {%a}"
        failing_call node
        (Fmt.list ~sep:Fmt.comma Fmt.string)
        (List.map Check.fpga_state_to_string offending_states)
