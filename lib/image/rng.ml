(* Deterministic pseudo-random numbers (xorshift64-star), so that synthetic
   camera frames and noise are reproducible across runs and platforms. *)

(* The 64-bit state lives in an 8-byte buffer, read and written unboxed;
   a mutable int64 field would box every new state. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  (* avoid the all-zero state *)
  Bytes.set_int64_ne t 0
    (if seed = 0 then 0x9E3779B97F4A7C15L else Int64.of_int seed);
  t

let[@inline] next t =
  let x = Bytes.get_int64_ne t 0 in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  Bytes.set_int64_ne t 0 x;
  Int64.mul x 0x2545F4914F6CDD1DL

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound";
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let[@inline] float t =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992. (* 2^53 *)

let bool t = Int64.logand (next t) 1L = 1L

(* Gaussian-ish noise via the sum of three uniforms, range about
   [-1.5, 1.5] with standard deviation 0.5. *)
let noise t = float t +. float t +. float t -. 1.5
