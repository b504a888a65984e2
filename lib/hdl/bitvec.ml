(* Fixed-width bit vectors (1..62 bits), value semantics, wraparound
   arithmetic — the value domain of the RTL IR. *)

type t = { value : int; width : int }

let max_width = 62

let mask width = (1 lsl width) - 1

let make ~width value =
  if width < 1 || width > max_width then invalid_arg "Bitvec.make: width";
  { value = value land mask width; width }

let zero ~width = make ~width 0
let one ~width = make ~width 1
let ones ~width = make ~width (mask width)

let width v = v.width
let to_int v = v.value

let check2 a b name =
  if a.width <> b.width then
    invalid_arg (Printf.sprintf "Bitvec.%s: width mismatch %d vs %d" name
                   a.width b.width)

let add a b = check2 a b "add"; make ~width:a.width (a.value + b.value)
let sub a b = check2 a b "sub"; make ~width:a.width (a.value - b.value)
let mul a b = check2 a b "mul"; make ~width:a.width (a.value * b.value)
let logand a b = check2 a b "logand"; make ~width:a.width (a.value land b.value)
let logor a b = check2 a b "logor"; make ~width:a.width (a.value lor b.value)
let logxor a b = check2 a b "logxor"; make ~width:a.width (a.value lxor b.value)
let lognot a = make ~width:a.width (lnot a.value)
let neg a = make ~width:a.width (-a.value)

let equal a b = check2 a b "equal"; a.value = b.value
let ult a b = check2 a b "ult"; a.value < b.value

let bit a i =
  if i < 0 || i >= a.width then invalid_arg "Bitvec.bit";
  (a.value lsr i) land 1 = 1

let slice a ~hi ~lo =
  if lo < 0 || hi < lo || hi >= a.width then invalid_arg "Bitvec.slice";
  make ~width:(hi - lo + 1) (a.value lsr lo)

let concat hi lo =
  let w = hi.width + lo.width in
  if w > max_width then invalid_arg "Bitvec.concat: too wide";
  make ~width:w ((hi.value lsl lo.width) lor lo.value)

let extend a ~width:w =
  if w < a.width then invalid_arg "Bitvec.extend: narrower";
  make ~width:w a.value
