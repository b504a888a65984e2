(* An FPGA context (configuration): a fixed set of resources that are
   simultaneously available once the context's bitstream is loaded. *)

(* [seed] is the name's hash, taken once: every bitstream word reads it.
   [golden_crc] is the clean image's CRC, taken once in [make]: every
   download compares against it.  A plain field, not a [Lazy.t]: a
   context may be read from several domains, and forcing one lazy value
   from two domains at once raises. *)
type t = {
  name : string;
  resources : Resource.t list;
  seed : int;
  golden_crc : int;
}

let name c = c.name
let area c = List.fold_left (fun a r -> a + Resource.area r) 0 c.resources

let provides c resource_name =
  List.exists (fun r -> String.equal (Resource.name r) resource_name) c.resources

(* Bitstream size: a fixed configuration-frame header plus a per-area
   payload.  8 bytes of configuration data per logic unit is in the range
   of embedded FPGA fabrics of the period. *)
let bitstream_bytes c = 512 + (8 * area c)

let bitstream_words c = (bitstream_bytes c + 3) / 4

(* Deterministic pseudo-bitstream: word [i] is a splitmix-style hash of
   the context name and the index, so every context has a stable golden
   image without storing one.  [Hashtbl.hash] on strings is
   deterministic across runs. *)
let bitstream_word c i =
  let x = c.seed + (i * 0x01000193) in
  let x = x * 0x9E3779B1 land 0xFFFFFFFF in
  let x = x lxor (x lsr 15) in
  let x = x * 0x85EBCA77 land 0xFFFFFFFF in
  x lxor (x lsr 13) land 0xFFFFFFFF

let make name resources =
  let names = List.map Resource.name resources in
  let dedup = List.sort_uniq String.compare names in
  if List.length dedup <> List.length names then
    invalid_arg ("Context.make: duplicate resource in " ^ name);
  let c =
    { name; resources; seed = Hashtbl.hash name land 0xFFFF; golden_crc = 0 }
  in
  { c with golden_crc = Crc.words (bitstream_word c) (bitstream_words c) }

let golden_crc c = c.golden_crc
