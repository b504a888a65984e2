(* Control-flow graph of a mini-C program.

   Nodes are program points; edges carry the action performed when
   control moves along them.  Branches and loop tests are
   nondeterministic (conditions are abstracted), so an [If] node has two
   outgoing Nop edges and a [While] node an entry edge into the body and
   an exit edge past it. *)

type action = Nop | Call of string | Reconfig of string

type edge = { src : int; dst : int; action : action }

type t = { entry : int; exit_ : int; nnodes : int; edges : edge list }

let action_to_string = function
  | Nop -> "-"
  | Call f -> f ^ "()"
  | Reconfig c -> "load(" ^ c ^ ")"

let build (program : Ast.program) =
  let counter = ref 0 in
  let fresh () =
    let n = !counter in
    incr counter;
    n
  in
  let edges = ref [] in
  let edge src dst action = edges := { src; dst; action } :: !edges in
  (* returns the exit node of the sequence started at [at] *)
  let rec seq at stmts = List.fold_left stmt at stmts
  and stmt at s =
    match s with
    | Ast.Call f ->
        let next = fresh () in
        edge at next (Call f);
        next
    | Ast.Reconfig c ->
        let next = fresh () in
        edge at next (Reconfig c);
        next
    | Ast.If (then_, else_) ->
        let join = fresh () in
        let t_entry = fresh () in
        edge at t_entry Nop;
        let t_exit = seq t_entry then_ in
        edge t_exit join Nop;
        let e_entry = fresh () in
        edge at e_entry Nop;
        let e_exit = seq e_entry else_ in
        edge e_exit join Nop;
        join
    | Ast.While body ->
        let b_entry = fresh () in
        edge at b_entry Nop;
        let b_exit = seq b_entry body in
        edge b_exit at Nop;
        let out = fresh () in
        edge at out Nop;
        out
  in
  let entry = fresh () in
  let exit_ = seq entry program in
  { entry; exit_; nnodes = !counter; edges = List.rev !edges }

let successors t node =
  List.filter (fun e -> e.src = node) t.edges
