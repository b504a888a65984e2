(* Simulation time, in integer nanoseconds.  63-bit native ints give about
   292 years of range, far beyond any run of the Symbad case studies. *)

type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let s n = n * 1_000_000_000

let of_cycles ~period_ns cycles = cycles * period_ns

let to_ns t = t
let add = ( + )
let sub a b = a - b
let compare = Int.compare
let ( <= ) (a : t) (b : t) = Stdlib.( <= ) a b
let ( < ) (a : t) (b : t) = Stdlib.( < ) a b

let pp fmt t =
  if t = 0 then Fmt.string fmt "0s"
  else if t mod 1_000_000_000 = 0 then Fmt.pf fmt "%ds" (t / 1_000_000_000)
  else if t mod 1_000_000 = 0 then Fmt.pf fmt "%dms" (t / 1_000_000)
  else if t mod 1_000 = 0 then Fmt.pf fmt "%dus" (t / 1_000)
  else Fmt.pf fmt "%dns" t

let to_string t = Fmt.str "%a" pp t
