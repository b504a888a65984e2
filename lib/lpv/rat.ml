(* Exact rational arithmetic over native ints.

   Always normalised: gcd(num, den) = 1, den > 0.  Native 63-bit ints are
   ample for the case study's cycle ratios; [make] and the ring
   operations keep numbers small through normalisation. *)

type t = { num : int; den : int }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let make num den =
  if den = 0 then invalid_arg "Rat.make: zero denominator";
  let s = if den < 0 then -1 else 1 in
  let num = s * num and den = s * den in
  let g = gcd (abs num) den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)

let num r = r.num
let den r = r.den

let add a b = make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
let sub a b = make ((a.num * b.den) - (b.num * a.den)) (a.den * b.den)
let mul a b = make (a.num * b.num) (a.den * b.den)

let div a b =
  if b.num = 0 then invalid_arg "Rat.div: division by zero";
  make (a.num * b.den) (a.den * b.num)

let neg a = { a with num = -a.num }
let inv a = div one a

let compare a b = Stdlib.compare (a.num * b.den) (b.num * a.den)
let equal a b = a.num = b.num && a.den = b.den
let sign a = Stdlib.compare a.num 0
let is_zero a = a.num = 0

let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0

let to_float r = float_of_int r.num /. float_of_int r.den

let pp fmt r =
  if r.den = 1 then Fmt.int fmt r.num else Fmt.pf fmt "%d/%d" r.num r.den
