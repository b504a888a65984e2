(* Embedded-CPU model (ARM7TDMI class) for annotated execution.

   The TL flow never runs an instruction-set simulator: the SW partition
   executes natively and only its *timing* is modelled, by waiting the
   annotated number of CPU cycles per task firing.  The model accumulates
   load statistics. *)

module Proc = Symbad_sim.Process
module Time = Symbad_sim.Time

type t = {
  period_ns : int;
  mutable executed_cycles : int;
  mutable busy_ns : int;
  mutable firings : int;
}

let create ?(period_ns = 20) () =
  (* 20 ns = 50 MHz, a typical ARM7TDMI clock of the period *)
  if period_ns <= 0 then invalid_arg "Cpu.create: period";
  { period_ns; executed_cycles = 0; busy_ns = 0; firings = 0 }


let execute c ~cycles =
  if cycles < 0 then invalid_arg "Cpu.execute: negative cycles";
  Proc.wait (Time.ns (cycles * c.period_ns));
  c.executed_cycles <- c.executed_cycles + cycles;
  c.busy_ns <- c.busy_ns + (cycles * c.period_ns);
  c.firings <- c.firings + 1

type stats = { executed_cycles : int; busy_ns : int; firings : int }

let stats (c : t) =
  { executed_cycles = c.executed_cycles; busy_ns = c.busy_ns; firings = c.firings }

let pp_stats fmt s =
  Fmt.pf fmt "cycles=%d busy=%dns firings=%d" s.executed_cycles s.busy_ns
    s.firings
