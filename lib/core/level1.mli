(** Level 1: untimed functional simulation.

    One process per task, unbounded point-to-point FIFOs, no time — the
    execution that checks "basic functionalities are actually realized".
    Every produced token is traced (for comparison against the reference
    model and against level 2) and every firing's work units feed the
    execution profile that drives the HW/SW partition. *)

type result = {
  trace : Symbad_sim.Trace.t;
  profile : Symbad_tlm.Annotation.Profile.t;
  kernel_stats : Symbad_sim.Kernel.stats;
}

val run : Task_graph.t -> result
