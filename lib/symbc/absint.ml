(* Abstract interpretation of the FPGA state.

   The abstract domain is the powerset of FPGA states
   ({no configuration} + one element per configuration) ordered by
   inclusion; the transfer function of a reconfiguration edge is the
   constant singleton, every other edge is the identity; joins happen at
   CFG merge points.  A worklist fixpoint yields, per program point, the
   set of states the FPGA may be in — the invariant the product
   reachability of {!Check} certifies, obtained the way the paper
   describes ("abstract interpretation to check reconfiguration
   consistency").

   For this property the powerset domain loses no precision, so the
   fixpoint equals {!Check}'s certificate node by node; the test suite
   checks that.  [Check] gives the verdict; the fixpoint runs over any
   successor function, and the reconfiguration lints read it over a CFG
   and over the interleaved product of two. *)

module State_set = Set.Make (struct
  type t = Check.fpga_state

  let compare = compare
end)

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
