let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles(data, n=4, method='exclusive')],
   integer arithmetic and clamping included. *)
let quartiles xs =
  let ld = Array.length xs in
  if ld < 2 then invalid_arg "Stats.quartiles: fewer than two samples";
  let a = sorted xs in
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (cut 1, cut 2, cut 3)

(* 1-based nearest rank; the epsilon keeps 99.9 % of 10 000 at rank
   9 990 instead of rounding it up to 9 991. *)
let rank p n = max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)))

let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  (sorted xs).(min n (rank p n) - 1)

let tail_levels = [ 50.; 90.; 99.; 99.9 ]

let tail xs =
  let n = Array.length xs in
  List.fold_left
    (fun best p -> if n > 0 && n - rank p n >= 10 then Some (p, percentile p xs) else best)
    None tail_levels
