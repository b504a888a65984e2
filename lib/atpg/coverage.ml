(* Coverage instrumentation for behavioural models.

   Models declare a universe of coverage points and mark hits while
   executing; the ATPG engines chase the unhit points.  The metrics are
   the ones Laerte++ reports: statement, branch and condition coverage,
   plus the stricter bit coverage (every observable bit of every output
   seen at both polarities). *)

type point =
  | Stmt of string
  | Branch of string * bool  (* both arms of each decision *)
  | Cond of string * bool  (* both values of each atomic condition *)
  | Bit of string * int * bool  (* output name, bit index, polarity *)

type t = { hits : (point, int) Hashtbl.t }

let create () = { hits = Hashtbl.create 64 }

let hit c point =
  Hashtbl.replace c.hits point
    (1 + Option.value ~default:0 (Hashtbl.find_opt c.hits point))

let stmt c id = hit c (Stmt id)
let branch c id v = hit c (Branch (id, v))
let cond c id v = hit c (Cond (id, v))

(* Record every bit of an output word (both polarities accumulate over a
   test suite). *)
let out_bits c name ~width value =
  for i = 0 to width - 1 do
    hit c (Bit (name, i, (value lsr i) land 1 = 1))
  done

let is_hit c point = Hashtbl.mem c.hits point
let hit_count c point = Option.value ~default:0 (Hashtbl.find_opt c.hits point)
let merge ~into src =
  Hashtbl.iter
    (fun point n ->
      Hashtbl.replace into.hits point
        (n + Option.value ~default:0 (Hashtbl.find_opt into.hits point)))
    src.hits

type report = {
  statement : float;
  branch_ : float;
  condition : float;
  bit : float;
  total : float;
  hit_points : int;
  total_points : int;
  missed : point list;
}

let ratio hits total = if total = 0 then 1. else float_of_int hits /. float_of_int total

let report ~universe c =
  let of_kind pred = List.filter pred universe in
  let count pred =
    let pts = of_kind pred in
    (List.length (List.filter (is_hit c) pts), List.length pts)
  in
  let s_hit, s_tot = count (function Stmt _ -> true | _ -> false) in
  let b_hit, b_tot = count (function Branch _ -> true | _ -> false) in
  let c_hit, c_tot = count (function Cond _ -> true | _ -> false) in
  let x_hit, x_tot = count (function Bit _ -> true | _ -> false) in
  {
    statement = ratio s_hit s_tot;
    branch_ = ratio b_hit b_tot;
    condition = ratio c_hit c_tot;
    bit = ratio x_hit x_tot;
    total = ratio (s_hit + b_hit + c_hit + x_hit) (s_tot + b_tot + c_tot + x_tot);
    hit_points = s_hit + b_hit + c_hit + x_hit;
    total_points = s_tot + b_tot + c_tot + x_tot;
    missed = List.filter (fun p -> not (is_hit c p)) universe;
  }

let pp_report fmt r =
  Fmt.pf fmt "stmt %.1f%% branch %.1f%% cond %.1f%% bit %.1f%% (total %.1f%%)"
    (100. *. r.statement) (100. *. r.branch_) (100. *. r.condition)
    (100. *. r.bit) (100. *. r.total)
