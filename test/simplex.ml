(* Two-phase primal simplex over exact rationals with Bland's rule
   (hence guaranteed termination): the reference the LPV tests check the
   library's cycle search against, by solving the paper's LPs (the
   place-invariant LP for deadlock, the cycle-ratio LP for timing)
   directly. *)

module Rat = Symbad_lpv.Rat

type cmp = Le | Ge | Eq

type constr = { coeffs : (int * Rat.t) list; cmp : cmp; rhs : Rat.t }
(* coeffs: (variable index, coefficient); variables are 0-based, >= 0 *)

type problem = {
  nvars : int;
  constraints : constr list;
  objective : (int * Rat.t) list;
  minimize : bool;
}

type outcome =
  | Optimal of { value : Rat.t; solution : Rat.t array }
  | Infeasible
  | Unbounded

(* Internal tableau:
     rows 1..m : constraints (columns: structural | slack | artificial | rhs)
     basis.(i) : variable basic in row i
   Cost rows are kept as dense arrays of reduced costs + objective value. *)

type tableau = {
  m : int;
  ncols : int;  (* total variable columns (excluding rhs) *)
  a : Rat.t array array;  (* m x (ncols + 1); last column = rhs *)
  basis : int array;
}

let pivot (t : tableau) ~row ~col =
  let piv = t.a.(row).(col) in
  assert (not (Rat.is_zero piv));
  let inv = Rat.inv piv in
  for j = 0 to t.ncols do
    t.a.(row).(j) <- Rat.mul t.a.(row).(j) inv
  done;
  for i = 0 to t.m - 1 do
    if i <> row && not (Rat.is_zero t.a.(i).(col)) then begin
      let factor = t.a.(i).(col) in
      for j = 0 to t.ncols do
        t.a.(i).(j) <- Rat.sub t.a.(i).(j) (Rat.mul factor t.a.(row).(j))
      done
    end
  done;
  t.basis.(row) <- col

(* Minimise cost.(x) over the tableau; [cost] has ncols entries plus the
   accumulated objective in cost.(ncols).  Reduced costs maintained by
   eliminating basic columns from [cost].  Returns `Optimal or
   `Unbounded; mutates tableau and cost in place. *)
let optimise (t : tableau) (cost : Rat.t array) =
  (* make cost row consistent with the current basis *)
  for i = 0 to t.m - 1 do
    let b = t.basis.(i) in
    if not (Rat.is_zero cost.(b)) then begin
      let factor = cost.(b) in
      for j = 0 to t.ncols do
        cost.(j) <- Rat.sub cost.(j) (Rat.mul factor t.a.(i).(j))
      done
    end
  done;
  let rec iterate () =
    (* Bland: entering column = smallest index with negative reduced cost *)
    let rec entering j =
      if j >= t.ncols then None
      else if Rat.sign cost.(j) < 0 then Some j
      else entering (j + 1)
    in
    match entering 0 with
    | None -> `Optimal
    | Some col ->
        (* ratio test; Bland tie-break on smallest basic variable *)
        let best = ref None in
        for i = 0 to t.m - 1 do
          if Rat.sign t.a.(i).(col) > 0 then begin
            let ratio = Rat.div t.a.(i).(t.ncols) t.a.(i).(col) in
            match !best with
            | None -> best := Some (ratio, i)
            | Some (r, i') ->
                let c = Rat.compare ratio r in
                if c < 0 || (c = 0 && t.basis.(i) < t.basis.(i')) then
                  best := Some (ratio, i)
          end
        done;
        (match !best with
        | None -> `Unbounded
        | Some (_, row) ->
            pivot t ~row ~col;
            (* eliminate entering column from cost row *)
            let factor = cost.(col) in
            if not (Rat.is_zero factor) then
              for j = 0 to t.ncols do
                cost.(j) <- Rat.sub cost.(j) (Rat.mul factor t.a.(row).(j))
              done;
            iterate ())
  in
  iterate ()

let solve problem =
  let m = List.length problem.constraints in
  (* normalise to rhs >= 0 *)
  let rows =
    List.map
      (fun c ->
        if Rat.sign c.rhs < 0 then
          {
            coeffs = List.map (fun (i, q) -> (i, Rat.neg q)) c.coeffs;
            cmp = (match c.cmp with Le -> Ge | Ge -> Le | Eq -> Eq);
            rhs = Rat.neg c.rhs;
          }
        else c)
      problem.constraints
  in
  (* column layout: structural | slack/surplus (one per inequality) |
     artificial (one per Ge/Eq row) *)
  let n = problem.nvars in
  let n_slack =
    List.length (List.filter (fun c -> c.cmp <> Eq) rows)
  in
  let n_art =
    List.length (List.filter (fun c -> c.cmp <> Le) rows)
  in
  let ncols = n + n_slack + n_art in
  let a = Array.init m (fun _ -> Array.make (ncols + 1) Rat.zero) in
  let basis = Array.make m 0 in
  let slack_idx = ref n in
  let art_idx = ref (n + n_slack) in
  let artificials = ref [] in
  List.iteri
    (fun i c ->
      List.iter
        (fun (j, q) ->
          if j < 0 || j >= n then invalid_arg "Simplex.solve: variable index";
          a.(i).(j) <- Rat.add a.(i).(j) q)
        c.coeffs;
      a.(i).(ncols) <- c.rhs;
      (match c.cmp with
      | Le ->
          a.(i).(!slack_idx) <- Rat.one;
          basis.(i) <- !slack_idx;
          incr slack_idx
      | Ge ->
          a.(i).(!slack_idx) <- Rat.minus_one;
          incr slack_idx;
          a.(i).(!art_idx) <- Rat.one;
          basis.(i) <- !art_idx;
          artificials := !art_idx :: !artificials;
          incr art_idx
      | Eq ->
          a.(i).(!art_idx) <- Rat.one;
          basis.(i) <- !art_idx;
          artificials := !art_idx :: !artificials;
          incr art_idx))
    rows;
  let t = { m; ncols; a; basis } in
  (* phase 1 *)
  let feasible =
    if !artificials = [] then true
    else begin
      let cost = Array.make (ncols + 1) Rat.zero in
      List.iter (fun j -> cost.(j) <- Rat.one) !artificials;
      match optimise t cost with
      | `Unbounded -> false (* cannot happen: phase-1 objective >= 0 *)
      | `Optimal ->
          (* objective value is -cost.(ncols) after eliminations *)
          Rat.is_zero cost.(ncols)
    end
  in
  if not feasible then Infeasible
  else begin
    (* drive any artificial variables out of the basis if possible *)
    let is_artificial j = j >= n + n_slack in
    for i = 0 to m - 1 do
      if is_artificial basis.(i) then begin
        let rec find_col j =
          if j >= n + n_slack then None
          else if not (Rat.is_zero t.a.(i).(j)) then Some j
          else find_col (j + 1)
        in
        match find_col 0 with
        | Some col -> pivot t ~row:i ~col
        | None -> () (* redundant row; harmless *)
      end
    done;
    (* phase 2 *)
    let cost = Array.make (ncols + 1) Rat.zero in
    List.iter
      (fun (j, q) ->
        if j < 0 || j >= n then invalid_arg "Simplex.solve: objective index";
        let q = if problem.minimize then q else Rat.neg q in
        cost.(j) <- Rat.add cost.(j) q)
      problem.objective;
    (* forbid re-entering artificial columns (big positive reduced cost;
       any artificial still basic sits at value 0 in an all-zero row, so
       this cannot distort the objective) *)
    List.iter (fun j -> cost.(j) <- Rat.of_int 1_000_000_000) !artificials;
    match optimise t cost with
    | `Unbounded -> Unbounded
    | `Optimal ->
        let solution = Array.make n Rat.zero in
        for i = 0 to m - 1 do
          if basis.(i) < n then solution.(basis.(i)) <- t.a.(i).(ncols)
        done;
        let value =
          let v = Rat.neg cost.(ncols) in
          if problem.minimize then v else Rat.neg v
        in
        Optimal { value; solution }
  end
