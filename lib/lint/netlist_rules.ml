(* The netlist analyzer family.

   All rules work on possibly-*unchecked* netlists
   ([Netlist.make_unchecked]): the defects [Netlist.make] rejects at
   elaboration time must be representable so they can be diagnosed
   here instead of as runtime exceptions.  In that relaxed world an
   [Expr.Reg n] reference resolves, in order, to the register [n], to
   the combinational net driven by output [n] (the SSA idiom), or to
   nothing at all (an undriven net).  Properties may read primed
   registers ([Reg "x'"], the next-state value) — primes are stripped
   before resolution. *)

module Expr = Symbad_hdl.Expr
module Bitvec = Symbad_hdl.Bitvec
module Netlist = Symbad_hdl.Netlist
module D = Diagnostic

type ctx = {
  nl : Netlist.t;
  target : string;
  properties : (string * Expr.t) list;
}

let context ?(properties = []) nl =
  { nl; target = Netlist.name nl; properties }

let base_name n =
  let l = String.length n in
  if l > 0 && n.[l - 1] = '\'' then String.sub n 0 (l - 1) else n

let diag ctx ?hint ~rule ~severity ~location message =
  D.make ?hint ~rule ~severity ~target:ctx.target ~location message

type site_kind = Next_state | Output | Property

(* Every expression in the design, with its kind and a location label:
   next-state functions in register order, outputs, then properties. *)
let sites ctx =
  List.map
    (fun (r : Netlist.register) ->
      (Next_state, "next(" ^ r.Netlist.name ^ ")", r.Netlist.next))
    (Netlist.registers ctx.nl)
  @ List.map (fun (n, e) -> (Output, "output " ^ n, e)) (Netlist.outputs ctx.nl)
  @ List.map (fun (n, e) -> (Property, "property " ^ n, e)) ctx.properties

(* Names appearing more than once, deduplicated, sorted. *)
let duplicates names =
  let count = Hashtbl.create 16 in
  List.iter
    (fun n ->
      Hashtbl.replace count n
        (1 + Option.value ~default:0 (Hashtbl.find_opt count n)))
    names;
  List.sort_uniq String.compare
    (List.filter (fun n -> Hashtbl.find count n > 1) names)

(* All input / register names in the cone of [exprs], expanding
   comb-net (output) references; [through_regs] additionally follows
   register next-state functions (the full cone of influence). *)
let cone nl ~through_regs exprs =
  let used = Hashtbl.create 32 in
  let visited_nets = Hashtbl.create 16 in
  let rec go e =
    Expr.fold_names
      (fun () -> function
        | `Input n -> Hashtbl.replace used n ()
        | `Reg n -> (
            let n = base_name n in
            match Netlist.find_register nl n with
            | Some r ->
                if not (Hashtbl.mem used n) then begin
                  Hashtbl.replace used n ();
                  if through_regs then go r.Netlist.next
                end
            | None -> (
                match Netlist.find_output nl n with
                | Some e' ->
                    if not (Hashtbl.mem visited_nets n) then begin
                      Hashtbl.replace visited_nets n ();
                      go e'
                    end
                | None -> ())))
      () e
  in
  List.iter go exprs;
  used

(* --- net.multi-driven -------------------------------------------------- *)

let rule_multi_driven ctx =
  let nl = ctx.nl in
  let mk = diag ctx ~rule:"net.multi-driven" ~severity:D.Error in
  let state_names =
    List.map fst (Netlist.inputs nl)
    @ List.map (fun (r : Netlist.register) -> r.Netlist.name) (Netlist.registers nl)
  in
  let out_names = List.map fst (Netlist.outputs nl) in
  List.map
    (fun n ->
      mk ~location:("signal " ^ n)
        ~hint:"rename one of the declarations"
        (Printf.sprintf "signal '%s' is declared more than once" n))
    (duplicates state_names)
  @ List.map
      (fun n ->
        mk ~location:("output " ^ n)
          ~hint:"merge or rename the colliding drivers"
          (Printf.sprintf "output '%s' is driven more than once" n))
      (duplicates out_names)
  @ List.filter_map
      (fun n ->
        if List.mem_assoc n (Netlist.inputs nl) then
          Some
            (mk ~location:("output " ^ n)
               ~hint:"rename the output; inputs are externally driven"
               (Printf.sprintf "output '%s' collides with input '%s'" n n))
        else None)
      (List.sort_uniq String.compare out_names)

(* --- net.undriven ------------------------------------------------------ *)

let rule_undriven ctx =
  let nl = ctx.nl in
  let mk = diag ctx ~rule:"net.undriven" ~severity:D.Error in
  let findings =
    List.concat_map
      (fun (_, loc, e) ->
        Expr.fold_names
          (fun acc -> function
            | `Input n ->
                if Netlist.input_width n nl = None then (loc, `Input, n) :: acc
                else acc
            | `Reg n ->
                let n = base_name n in
                if
                  Netlist.reg_width n nl = None
                  && Netlist.find_output nl n = None
                then (loc, `Net, n) :: acc
                else acc)
          [] e)
      (sites ctx)
  in
  List.sort_uniq compare findings
  |> List.map (fun (loc, kind, n) ->
         match kind with
         | `Input ->
             mk ~location:loc
               ~hint:(Printf.sprintf "declare input '%s'" n)
               (Printf.sprintf "references undeclared input '%s'" n)
         | `Net ->
             mk ~location:loc
               ~hint:
                 (Printf.sprintf
                    "declare a register or drive an output named '%s'" n)
               (Printf.sprintf "references undriven net '%s'" n))

(* --- net.width --------------------------------------------------------- *)

let rule_width ctx =
  let nl = ctx.nl in
  let mk = diag ctx ~rule:"net.width" ~severity:D.Error in
  let outs = Netlist.outputs nl in
  (* Fixpoint-resolve the widths of combinational nets (outputs used as
     [Reg] references); nets in a loop or downstream of a width error
     never resolve. *)
  let resolved = Hashtbl.create 16 in
  let reg_or_net_width n =
    let n = base_name n in
    match Netlist.reg_width n nl with
    | Some w -> Some w
    | None -> Hashtbl.find_opt resolved n
  in
  let input_width n = Netlist.input_width n nl in
  let infer e = Expr.infer_width ~input_width ~reg_width:reg_or_net_width e in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (n, e) ->
        if Netlist.reg_width n nl = None && not (Hashtbl.mem resolved n) then
          match infer e with
          | Ok w ->
              Hashtbl.replace resolved n w;
              changed := true
          | Error _ -> ())
      outs
  done;
  (* An expression referencing a name no width can be assigned to is
     some other rule's finding (net.undriven, net.comb-loop) or the
     cascade of a width error reported at its source — skip it. *)
  let unresolvable e =
    Expr.fold_names
      (fun acc -> function
        | `Input n -> acc || input_width n = None
        | `Reg n -> acc || reg_or_net_width (base_name n) = None)
      false e
  in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  List.iter
    (fun (n, w) ->
      if w < 1 then
        add
          (mk ~location:("input " ^ n)
             (Printf.sprintf "declared width %d, expected at least 1" w)))
    (Netlist.inputs nl);
  List.iter
    (fun (r : Netlist.register) ->
      if Bitvec.width r.Netlist.init <> r.Netlist.width then
        add
          (mk
             ~location:("register " ^ r.Netlist.name)
             ~hint:"make the reset value as wide as the register"
             (Printf.sprintf "init width %d, declared %d"
                (Bitvec.width r.Netlist.init)
                r.Netlist.width));
      match infer r.Netlist.next with
      | Ok w when w = r.Netlist.width -> ()
      | Ok w ->
          add
            (mk
               ~location:("next(" ^ r.Netlist.name ^ ")")
               ~hint:"zero-extend or slice the next-state expression"
               (Printf.sprintf "width %d, declared %d" w r.Netlist.width))
      | Error msg ->
          if not (unresolvable r.Netlist.next) then
            add (mk ~location:("next(" ^ r.Netlist.name ^ ")") msg))
    (Netlist.registers nl);
  List.iter
    (fun (n, e) ->
      match infer e with
      | Ok _ -> ()
      | Error msg ->
          if not (unresolvable e) then add (mk ~location:("output " ^ n) msg))
    outs;
  List.iter
    (fun (n, e) ->
      match infer e with
      | Ok 1 -> ()
      | Ok w ->
          add
            (mk
               ~location:("property " ^ n)
               ~hint:"properties are width-1 truth values"
               (Printf.sprintf "width %d, expected 1" w))
      | Error msg ->
          if not (unresolvable e) then add (mk ~location:("property " ^ n) msg))
    ctx.properties;
  List.rev !diags

(* --- net.comb-loop ----------------------------------------------------- *)

(* Combinational dependencies of an expression: referenced comb nets
   (output names that are not registers).  Registers break cycles. *)
let comb_deps nl e =
  Expr.fold_names
    (fun acc -> function
      | `Input _ -> acc
      | `Reg n ->
          let n = base_name n in
          if Netlist.reg_width n nl = None && Netlist.find_output nl n <> None
          then n :: acc
          else acc)
    [] e
  |> List.rev

let rule_comb_loop ctx =
  let nl = ctx.nl in
  let mk = diag ctx ~rule:"net.comb-loop" ~severity:D.Error in
  let outs = Netlist.outputs nl in
  let color = Hashtbl.create 16 in
  let cycles = ref [] in
  let rec dfs path n =
    match Hashtbl.find_opt color n with
    | Some `Black -> ()
    | Some `Gray ->
        (* n is on the current path: the cycle is everything from its
           first occurrence down to here. *)
        let rec take acc = function
          | [] -> acc
          | x :: rest ->
              if String.equal x n then x :: acc else take (x :: acc) rest
        in
        cycles := take [] path :: !cycles
    | None ->
        Hashtbl.replace color n `Gray;
        (match List.assoc_opt n outs with
        | Some e -> List.iter (dfs (n :: path)) (comb_deps nl e)
        | None -> ());
        Hashtbl.replace color n `Black
  in
  List.iter (fun (n, _) -> dfs [] n) outs;
  let seen = Hashtbl.create 4 in
  List.rev !cycles
  |> List.filter_map (fun cycle ->
         let key = String.concat "," (List.sort String.compare cycle) in
         if Hashtbl.mem seen key then None
         else begin
           Hashtbl.replace seen key ();
           let head = List.hd cycle in
           Some
             (mk
                ~location:("output " ^ head)
                ~hint:"break the loop with a register"
                (Printf.sprintf "combinational loop: %s -> %s"
                   (String.concat " -> " cycle)
                   head))
         end)

(* --- net.unused -------------------------------------------------------- *)

let rule_unused ctx =
  let nl = ctx.nl in
  let mk = diag ctx ~rule:"net.unused" ~severity:D.Warning in
  let seeds =
    List.map snd (Netlist.outputs nl) @ List.map snd ctx.properties
  in
  let used = cone nl ~through_regs:true seeds in
  List.filter_map
    (fun (n, _) ->
      if Hashtbl.mem used n then None
      else
        Some
          (mk ~location:("input " ^ n)
             ~hint:"remove it or wire it into the logic"
             (Printf.sprintf
                "input '%s' is outside the cone of every output and property"
                n)))
    (Netlist.inputs nl)
  @ List.filter_map
      (fun (r : Netlist.register) ->
        if Hashtbl.mem used r.Netlist.name then None
        else
          Some
            (mk
               ~location:("register " ^ r.Netlist.name)
               ~hint:"remove it or reference it from an output or property"
               (Printf.sprintf
                  "register '%s' is outside the cone of every output and \
                   property"
                  r.Netlist.name)))
      (Netlist.registers nl)

(* --- net.dead-logic ---------------------------------------------------- *)

let fold_const e =
  if Expr.fold_names (fun _ _ -> true) false e then None
  else
    try
      Some (Expr.eval ~input:(fun _ -> raise Exit) ~reg:(fun _ -> raise Exit) e)
    with _ -> None

let rule_dead_logic ctx =
  let mk = diag ctx ~rule:"net.dead-logic" ~severity:D.Warning in
  let rec scan ~loc acc (e : Expr.t) =
    let acc =
      match e with
      | Expr.Mux (s, t, f) -> (
          match fold_const s with
          | Some v ->
              mk ~location:loc
                ~hint:"drop the mux and keep the live arm"
                (Printf.sprintf
                   "mux selector folds to constant %d; the %s arm is dead"
                   (Bitvec.to_int v)
                   (if Bitvec.to_int v = 1 then "else" else "then"))
              :: acc
          | None -> (
              match (fold_const t, fold_const f) with
              | Some a, Some b when Bitvec.equal a b ->
                  mk ~location:loc
                    ~hint:"replace the mux with the constant"
                    "both mux arms fold to the same constant"
                  :: acc
              | _ -> acc))
      | _ -> acc
    in
    match e with
    | Expr.Const _ | Expr.Input _ | Expr.Reg _ -> acc
    | Expr.Unop (_, a) | Expr.Slice (a, _, _) -> scan ~loc acc a
    | Expr.Binop (_, a, b) | Expr.Concat (a, b) ->
        scan ~loc (scan ~loc acc a) b
    | Expr.Mux (a, b, c) -> scan ~loc (scan ~loc (scan ~loc acc a) b) c
  in
  let mux_diags =
    List.fold_left (fun acc (_, loc, e) -> scan ~loc acc e) [] (sites ctx)
    |> List.rev
  in
  let prop_diags =
    List.filter_map
      (fun (n, f) ->
        let loc = "property " ^ n in
        match fold_const f with
        | Some v ->
            Some
              (mk ~location:loc
                 ~hint:"a constant property checks nothing"
                 (Printf.sprintf "folds to constant %d (%s)" (Bitvec.to_int v)
                    (if Bitvec.to_int v = 1 then "trivially true"
                     else "never satisfiable")))
        | None -> (
            match f with
            | Expr.Binop (Expr.Or, Expr.Unop (Expr.Not, a), _) -> (
                match fold_const a with
                | Some v when Bitvec.to_int v = 0 ->
                    Some
                      (mk ~location:loc
                         ~hint:"the implication can never be exercised"
                         "implication antecedent folds to false; the property \
                          is vacuous")
                | _ -> None)
            | _ -> None))
      ctx.properties
  in
  mux_diags @ prop_diags

(* --- net.no-reset ------------------------------------------------------ *)

let reset_like = [ "reset"; "rst"; "rst_n"; "arst"; "nreset" ]

let reset_inputs nl =
  List.filter_map
    (fun (n, _) ->
      if List.mem (String.lowercase_ascii n) reset_like then Some n else None)
    (Netlist.inputs nl)

(* The registers whose next-state cone ignores every reset input.  With
   no reset input there are none: registers then reset through their
   init values, and there is no reset path to cover.  net.no-reset
   reports these registers and the fixpoint models them as X after
   reset, so the rule and the X model can never disagree. *)
let unreset_registers nl =
  match reset_inputs nl with
  | [] -> []
  | resets ->
      List.filter_map
        (fun (r : Netlist.register) ->
          let seen = cone nl ~through_regs:false [ r.Netlist.next ] in
          if List.exists (Hashtbl.mem seen) resets then None
          else Some r.Netlist.name)
        (Netlist.registers nl)

let rule_no_reset ctx =
  let mk = diag ctx ~rule:"net.no-reset" ~severity:D.Warning in
  match reset_inputs ctx.nl with
  | [] -> []
  | reset :: _ ->
      List.map
        (fun name ->
          mk
            ~location:("register " ^ name)
            ~hint:(Printf.sprintf "gate next(%s) with input '%s'" name reset)
            (Printf.sprintf "register '%s' has no path from any reset input"
               name))
        (unreset_registers ctx.nl)
