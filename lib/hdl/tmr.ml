(* Triple modular redundancy as a netlist transformation.

   [triplicate] keeps three lock-stepped copies of every register and
   votes the outputs bitwise; a single upset copy is outvoted — masked —
   and its per-copy disagreement flag tells the reconfiguration
   controller exactly which resource area to repair, without touching
   the two healthy copies.  [voter] is the majority element itself, as a
   standalone combinational netlist whose masking contract the model
   checker discharges (see [Symbad_resil.Masking]).

   The majority function is the bitwise [maj(a,b,c) = ab | ac | bc]:
   each output bit follows the two copies that agree, so corrupting any
   single copy arbitrarily never moves the voted value. *)

let copy_suffix i = Printf.sprintf "__tmr%d" i
let copy_reg i name = name ^ copy_suffix i

let majority a b c =
  Expr.or_ (Expr.or_ (Expr.and_ a b) (Expr.and_ a c)) (Expr.and_ b c)

(* Redirect every register read to copy [i]; inputs are shared. *)
let rec rename_regs i = function
  | Expr.Reg n -> Expr.Reg (copy_reg i n)
  | e -> Expr.map (rename_regs i) e

let reduce op = function
  | [] -> invalid_arg "Tmr.reduce: empty"
  | e :: es -> List.fold_left op e es

let implies p q = Expr.or_ (Expr.not_ p) q

(* The voted outputs and the per-copy disagreement flags of a
   triplicated netlist — shared between [triplicate] (which emits them)
   and [triplication_properties] (which constrains them). *)
let voted_outputs nl =
  List.map
    (fun (n, e) ->
      (n, majority (rename_regs 0 e) (rename_regs 1 e) (rename_regs 2 e)))
    (Netlist.outputs nl)

let disagree_flag nl voted i =
  reduce Expr.or_
    (List.map
       (fun (n, e) ->
         Expr.not_ (Expr.eq (rename_regs i e) (List.assoc n voted)))
       (Netlist.outputs nl))

let triplicate nl =
  if Netlist.outputs nl = [] then
    invalid_arg "Tmr.triplicate: netlist has no outputs to vote";
  let registers =
    List.concat_map
      (fun (r : Netlist.register) ->
        List.init 3 (fun i ->
            {
              Netlist.name = copy_reg i r.Netlist.name;
              width = r.Netlist.width;
              init = r.Netlist.init;
              next = rename_regs i r.Netlist.next;
            }))
      (Netlist.registers nl)
  in
  let voted = voted_outputs nl in
  let d i = disagree_flag nl voted i in
  let d0 = d 0 and d1 = d 1 and d2 = d 2 in
  Netlist.make
    ~name:(Netlist.name nl ^ "_tmr")
    ~inputs:(Netlist.inputs nl) ~registers
    ~outputs:
      (voted
      @ [
          ("tmr_disagree0", d0);
          ("tmr_disagree1", d1);
          ("tmr_disagree2", d2);
          ("tmr_disagree", Expr.or_ (Expr.or_ d0 d1) d2);
        ])

(* Lock-step invariant of a triplicated netlist: the three register
   banks stay equal (1-inductive: equal states under shared inputs step
   to equal states), hence every disagreement flag stays low and the
   voted outputs equal copy 0's.  One conjunction so the whole contract
   is inductive at once. *)
let triplication_properties nl =
  let regs_agree =
    List.concat_map
      (fun (r : Netlist.register) ->
        let c i = Expr.Reg (copy_reg i r.Netlist.name) in
        [ Expr.eq (c 0) (c 1); Expr.eq (c 0) (c 2) ])
      (Netlist.registers nl)
  in
  let voted = voted_outputs nl in
  let flags_low =
    List.init 3 (fun i -> Expr.not_ (disagree_flag nl voted i))
  in
  let voted_is_copy0 =
    List.map
      (fun (n, e) -> Expr.eq (List.assoc n voted) (rename_regs 0 e))
      (Netlist.outputs nl)
  in
  [
    ( "tmr.lockstep",
      reduce Expr.and_ (regs_agree @ flags_low @ voted_is_copy0) );
  ]

(* The standalone majority voter: three redundant result words in,
   the voted word and per-copy disagreement flags out. *)
let voter ?(width = 8) () =
  if width < 1 then invalid_arg "Tmr.voter: width";
  let a = Expr.input "a" and b = Expr.input "b" and c = Expr.input "c" in
  let voted = majority a b c in
  let dis x = Expr.not_ (Expr.eq x voted) in
  Netlist.make
    ~name:(Printf.sprintf "tmr_voter%d" width)
    ~inputs:[ ("a", width); ("b", width); ("c", width) ]
    ~registers:[]
    ~outputs:
      [
        ("voted", voted);
        ("disagree_a", dis a);
        ("disagree_b", dis b);
        ("disagree_c", dis c);
        ("disagree_any", Expr.or_ (Expr.or_ (dis a) (dis b)) (dis c));
      ]

(* The voter's masking contract, as named width-1 formulas over the
   voter's inputs (voted/disagree inlined so they double as lint
   property inputs and as [Symbad_mc.Prop] bodies):
   - a single corrupted copy never changes the voted output,
   - agreement raises no flag,
   - a lone dissenter raises exactly its own flag. *)
let voter_properties () =
  let a = Expr.input "a" and b = Expr.input "b" and c = Expr.input "c" in
  let voted = majority a b c in
  let dis x = Expr.not_ (Expr.eq x voted) in
  let eq = Expr.eq and and_ = Expr.and_ and not_ = Expr.not_ in
  let lone_dissenter x y z =
    (* x disagrees with the agreeing pair y = z *)
    and_ (eq y z) (not_ (eq x y))
  in
  [
    (* masking: whatever a single corrupted copy drives, the voted
       output follows the agreeing pair *)
    ("tmr.mask_corrupt_a", implies (eq b c) (eq voted b));
    ("tmr.mask_corrupt_b", implies (eq a c) (eq voted a));
    ("tmr.mask_corrupt_c", implies (eq a b) (eq voted a));
    (* no false alarms: full agreement keeps every flag low *)
    ( "tmr.no_false_alarm",
      implies
        (and_ (eq a b) (eq b c))
        (and_
           (not_ (dis a))
           (and_ (not_ (dis b)) (not_ (dis c)))) );
    (* exact diagnosis: a lone dissenter raises its own flag and only
       its own — the targeted-repair signal *)
    ( "tmr.diagnose_a",
      implies (lone_dissenter a b c)
        (and_ (dis a) (and_ (not_ (dis b)) (not_ (dis c)))) );
    ( "tmr.diagnose_b",
      implies (lone_dissenter b a c)
        (and_ (dis b) (and_ (not_ (dis a)) (not_ (dis c)))) );
    ( "tmr.diagnose_c",
      implies (lone_dissenter c a b)
        (and_ (dis c) (and_ (not_ (dis a)) (not_ (dis b)))) );
  ]
