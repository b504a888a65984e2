(* Memory model: a bus-addressable byte store with an access latency.
   Used for the nonvolatile face DATABASE and for bitstream storage. *)

module Proc = Symbad_sim.Process
module Time = Symbad_sim.Time

type t = {
  name : string;
  data : Bytes.t;
  access_cycles : int;  (* additional latency per transaction *)
  mutable reads : int;
  mutable writes : int;
}

let create ?(access_cycles = 2) ~size name =
  if size <= 0 then invalid_arg "Memory.create: size";
  {
    name;
    data = Bytes.make size '\000';
    access_cycles;
    reads = 0;
    writes = 0;
  }


let check m addr len =
  if addr < 0 || len < 0 || addr + len > Bytes.length m.data then
    invalid_arg
      (Printf.sprintf "Memory.%s: [%d,%d) out of [0,%d)" m.name addr
         (addr + len) (Bytes.length m.data))

(* Direct (zero-time) accessors, used to preload contents. *)
let poke m ~addr bytes =
  check m addr (Bytes.length bytes);
  Bytes.blit bytes 0 m.data addr (Bytes.length bytes)

let peek m ~addr ~len =
  check m addr len;
  Bytes.sub m.data addr len

(* Bus-mediated accessors, used from simulation processes. *)
let read m ~bus ~master ~addr ~len =
  check m addr len;
  Bus.transfer bus
    (Transaction.make ~master ~target:m.name ~kind:Transaction.Read ~bytes:len);
  Proc.wait (Time.ns (m.access_cycles * Bus.period_ns bus));
  m.reads <- m.reads + 1;
  Bytes.sub m.data addr len

let write m ~bus ~master ~addr bytes =
  check m addr (Bytes.length bytes);
  Bus.transfer bus
    (Transaction.make ~master ~target:m.name ~kind:Transaction.Write
       ~bytes:(Bytes.length bytes));
  Proc.wait (Time.ns (m.access_cycles * Bus.period_ns bus));
  Bytes.blit bytes 0 m.data addr (Bytes.length bytes);
  m.writes <- m.writes + 1

let accesses m = (m.reads, m.writes)
