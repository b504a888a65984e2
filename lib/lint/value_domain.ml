(* The abstract value lattice: small exact value sets (constants are
   singletons) degrading to intervals degrading to the full range, with
   an orthogonal poison (X / uninitialized) flag.  Poison forces the
   full range so concretisation stays a superset no matter what the
   transfer functions do with the bounds. *)

module Bitvec = Symbad_hdl.Bitvec
module IntSet = Set.Make (Int)

(* Beyond this cardinality an exact value set collapses to its hull —
   the constant×set layer is for FSM state registers and the like, not
   for datapath words. *)
let max_set = 16

(* Pairwise set transfers are exact only while the product stays
   small; beyond that the interval layer takes over. *)
let max_pairs = 256

type vals = Set of IntSet.t | Range of int * int

type t = { width : int; poison : bool; vals : vals }

let width t = t.width

let max_value w = if w >= 62 then max_int else (1 lsl w) - 1
let mask w v = v land max_value w

let norm_set _w s =
  if IntSet.cardinal s > max_set then
    Range (IntSet.min_elt s, IntSet.max_elt s)
  else Set s

let bottom ~width = { width; poison = false; vals = Set IntSet.empty }
let is_bottom t = (not t.poison) && t.vals = Set IntSet.empty

let top ~width = { width; poison = false; vals = Range (0, max_value width) }
let x ~width = { width; poison = true; vals = Range (0, max_value width) }
let is_poison t = t.poison

let const bv =
  {
    width = Bitvec.width bv;
    poison = false;
    vals = Set (IntSet.singleton (Bitvec.to_int bv));
  }

let of_list ~width vs =
  {
    width;
    poison = false;
    vals = norm_set width (IntSet.of_list (List.map (mask width) vs));
  }

let range ~width lo hi =
  let lo = max 0 lo and hi = min (max_value width) hi in
  if hi < lo then bottom ~width else { width; poison = false; vals = Range (lo, hi) }

let is_const t =
  match (t.poison, t.vals) with
  | false, Set s when IntSet.cardinal s = 1 -> Some (IntSet.min_elt s)
  | false, Range (lo, hi) when lo = hi -> Some lo
  | _ -> None

let bounds t =
  match t.vals with
  | Set s when IntSet.is_empty s -> if t.poison then Some (0, max_value t.width) else None
  | Set s -> Some (IntSet.min_elt s, IntSet.max_elt s)
  | Range (lo, hi) -> Some (lo, hi)

let mem v t =
  t.poison
  ||
  match t.vals with
  | Set s -> IntSet.mem v s
  | Range (lo, hi) -> lo <= v && v <= hi

let equal a b =
  a.width = b.width && a.poison = b.poison
  &&
  match (a.vals, b.vals) with
  | Set s, Set s' -> IntSet.equal s s'
  | Range (lo, hi), Range (lo', hi') -> lo = lo' && hi = hi'
  | _ -> false

let join a b =
  if is_bottom a then b
  else if is_bottom b then a
  else if a.poison || b.poison then x ~width:a.width
  else
    let vals =
      match (a.vals, b.vals) with
      | Set s, Set s' -> norm_set a.width (IntSet.union s s')
      | (Set _ | Range _), (Set _ | Range _) ->
          let alo, ahi = Option.get (bounds a)
          and blo, bhi = Option.get (bounds b) in
          Range (min alo blo, max ahi bhi)
    in
    { width = a.width; poison = false; vals }

let widen ~prev ~next =
  let j = join prev next in
  if equal j prev || is_bottom prev then j
  else
    match (j.vals, bounds prev) with
    | Set _, _ | _, None -> j (* set growth is bounded by [max_set] *)
    | Range (lo, hi), Some (plo, phi) ->
        {
          j with
          vals =
            Range
              ( (if lo < plo then 0 else lo),
                if hi > phi then max_value j.width else hi );
        }

(* --- transfer functions ------------------------------------------------ *)

(* A binary transfer: exact over small sets, [f_range] over the hulls,
   poison propagating, [wout]-wide. *)
let lift2 wout f_exact f_range a b =
  if is_bottom a || is_bottom b then bottom ~width:wout
  else if a.poison || b.poison then x ~width:wout
  else
    match (a.vals, b.vals) with
    | Set sa, Set sb when IntSet.cardinal sa * IntSet.cardinal sb <= max_pairs
      ->
        let s =
          IntSet.fold
            (fun va acc ->
              IntSet.fold
                (fun vb acc -> IntSet.add (mask wout (f_exact va vb)) acc)
                sb acc)
            sa IntSet.empty
        in
        { width = wout; poison = false; vals = norm_set wout s }
    | _ ->
        let alo, ahi = Option.get (bounds a)
        and blo, bhi = Option.get (bounds b) in
        f_range (alo, ahi) (blo, bhi)

let lift1 wout f_exact f_range a =
  if is_bottom a then bottom ~width:wout
  else if a.poison then x ~width:wout
  else
    match a.vals with
    | Set s ->
        let s' =
          IntSet.fold
            (fun v acc -> IntSet.add (mask wout (f_exact v)) acc)
            s IntSet.empty
        in
        { width = wout; poison = false; vals = norm_set wout s' }
    | Range (lo, hi) -> f_range (lo, hi)

let add a b =
  let w = a.width in
  let m = max_value w in
  lift2 w ( + )
    (fun (alo, ahi) (blo, bhi) ->
      (* [ahi + bhi] can overflow the OCaml int; compare by subtraction *)
      if ahi > m - bhi then top ~width:w else range ~width:w (alo + blo) (ahi + bhi))
    a b

let sub a b =
  let w = a.width in
  lift2 w ( - )
    (fun (alo, ahi) (blo, bhi) ->
      if alo >= bhi then range ~width:w (alo - bhi) (ahi - blo)
      else top ~width:w (* a borrow wraps *))
    a b

let mul a b =
  let w = a.width in
  let m = max_value w in
  lift2 w ( * )
    (fun (alo, ahi) (blo, bhi) ->
      if ahi > 0 && bhi > 0 && ahi > m / bhi then top ~width:w
      else range ~width:w (alo * blo) (ahi * bhi))
    a b

(* Smallest all-ones mask covering [v]. *)
let ceil_mask v =
  let rec go m = if m >= v then m else go ((m lsl 1) lor 1) in
  go 0

let logand a b =
  let w = a.width in
  lift2 w ( land )
    (fun (_, ahi) (_, bhi) -> range ~width:w 0 (min ahi bhi))
    a b

let logor a b =
  let w = a.width in
  lift2 w ( lor )
    (fun (alo, ahi) (blo, bhi) ->
      range ~width:w (max alo blo) (ceil_mask (ahi lor bhi)))
    a b

let logxor a b =
  let w = a.width in
  lift2 w ( lxor )
    (fun (_, ahi) (_, bhi) -> range ~width:w 0 (ceil_mask (ahi lor bhi)))
    a b

let lognot a =
  let w = a.width in
  let m = max_value w in
  lift1 w (fun v -> m - v) (fun (lo, hi) -> range ~width:w (m - hi) (m - lo)) a

let neg a =
  let w = a.width in
  let m = max_value w in
  lift1 w
    (fun v -> if v = 0 then 0 else m + 1 - v)
    (fun (lo, hi) ->
      if hi = 0 then of_list ~width:w [ 0 ]
      else if lo = 0 then top ~width:w (* 0 stays put, the rest reflects *)
      else range ~width:w (m + 1 - hi) (m + 1 - lo))
    a

let bool_val vs = of_list ~width:1 vs
let unknown_bool = bool_val [ 0; 1 ]

(* Predicates: decide from the exact sets when both are small, from the
   hulls otherwise. *)
let pred a b ~on_sets ~on_ranges =
  if is_bottom a || is_bottom b then bottom ~width:1
  else if a.poison || b.poison then x ~width:1
  else
    match (a.vals, b.vals) with
    | Set sa, Set sb -> on_sets sa sb
    | _ -> on_ranges (Option.get (bounds a)) (Option.get (bounds b))

let eq a b =
  pred a b
    ~on_sets:(fun sa sb ->
      if IntSet.is_empty (IntSet.inter sa sb) then bool_val [ 0 ]
      else if
        IntSet.cardinal sa = 1 && IntSet.cardinal sb = 1
        && IntSet.equal sa sb
      then bool_val [ 1 ]
      else unknown_bool)
    ~on_ranges:(fun (alo, ahi) (blo, bhi) ->
      if ahi < blo || bhi < alo then bool_val [ 0 ]
      else if alo = ahi && blo = bhi && alo = blo then bool_val [ 1 ]
      else unknown_bool)

let cmp_ranges (alo, ahi) (blo, bhi) ~always ~never =
  if always (alo, ahi) (blo, bhi) then bool_val [ 1 ]
  else if never (alo, ahi) (blo, bhi) then bool_val [ 0 ]
  else unknown_bool

let ult a b =
  pred a b
    ~on_sets:(fun sa sb ->
      cmp_ranges
        (IntSet.min_elt sa, IntSet.max_elt sa)
        (IntSet.min_elt sb, IntSet.max_elt sb)
        ~always:(fun (_, ahi) (blo, _) -> ahi < blo)
        ~never:(fun (alo, _) (_, bhi) -> alo >= bhi))
    ~on_ranges:
      (cmp_ranges
         ~always:(fun (_, ahi) (blo, _) -> ahi < blo)
         ~never:(fun (alo, _) (_, bhi) -> alo >= bhi))

let ule a b =
  pred a b
    ~on_sets:(fun sa sb ->
      cmp_ranges
        (IntSet.min_elt sa, IntSet.max_elt sa)
        (IntSet.min_elt sb, IntSet.max_elt sb)
        ~always:(fun (_, ahi) (blo, _) -> ahi <= blo)
        ~never:(fun (alo, _) (_, bhi) -> alo > bhi))
    ~on_ranges:
      (cmp_ranges
         ~always:(fun (_, ahi) (blo, _) -> ahi <= blo)
         ~never:(fun (alo, _) (_, bhi) -> alo > bhi))

let mux s t f =
  if is_bottom s then bottom ~width:t.width
  else
    match is_const s with
    | Some 1 -> t
    | Some _ -> f
    | None ->
        (* an X selector makes the choice itself X-dependent *)
        let j = join t f in
        if s.poison && not (is_bottom j) then x ~width:j.width else j

let slice ~hi ~lo a =
  let wout = hi - lo + 1 in
  lift1 wout
    (fun v -> (v lsr lo) land max_value wout)
    (fun (l, h) ->
      if lo = 0 && h <= max_value wout then range ~width:wout l h
      else top ~width:wout)
    a

let concat a b =
  let wout = a.width + b.width in
  let wb = b.width in
  if is_bottom a || is_bottom b then bottom ~width:wout
  else if a.poison || b.poison then x ~width:wout
  else
    match (a.vals, b.vals) with
    | Set sa, Set sb when IntSet.cardinal sa * IntSet.cardinal sb <= max_pairs
      ->
        let s =
          IntSet.fold
            (fun va acc ->
              IntSet.fold
                (fun vb acc -> IntSet.add ((va lsl wb) lor vb) acc)
                sb acc)
            sa IntSet.empty
        in
        { width = wout; poison = false; vals = norm_set wout s }
    | _ ->
        let alo, ahi = Option.get (bounds a)
        and blo, bhi = Option.get (bounds b) in
        range ~width:wout ((alo lsl wb) lor blo) ((ahi lsl wb) lor bhi)

(* --- wrap feasibility -------------------------------------------------- *)

let informative a b =
  (not (is_bottom a)) && (not (is_bottom b)) && not (a.poison || b.poison)

let add_may_wrap a b =
  informative a b
  &&
  let _, ahi = Option.get (bounds a) and _, bhi = Option.get (bounds b) in
  ahi > max_value a.width - bhi

let sub_may_wrap a b =
  informative a b
  &&
  let alo, _ = Option.get (bounds a) and _, bhi = Option.get (bounds b) in
  alo < bhi
  && (* exact sets can still rule a borrow out pointwise *)
  match (a.vals, b.vals) with
  | Set sa, Set sb when IntSet.cardinal sa * IntSet.cardinal sb <= max_pairs
    ->
      IntSet.exists (fun va -> IntSet.exists (fun vb -> va < vb) sb) sa
  | _ -> true

let mul_may_wrap a b =
  informative a b
  &&
  let _, ahi = Option.get (bounds a) and _, bhi = Option.get (bounds b) in
  ahi > 0 && bhi > 0 && ahi > max_value a.width / bhi

(* --- rendering --------------------------------------------------------- *)

let to_string t =
  if t.poison then "X"
  else if is_bottom t then "{}"
  else
    match t.vals with
    | Set s ->
        "{"
        ^ String.concat "," (List.map string_of_int (IntSet.elements s))
        ^ "}"
    | Range (lo, hi) -> Printf.sprintf "[%d..%d]" lo hi
