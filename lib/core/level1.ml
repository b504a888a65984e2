(* Level 1: untimed functional simulation.

   One process per task, unbounded point-to-point FIFOs, no notion of
   time — the standard-SystemC style execution whose purpose is checking
   "that basic functionalities are actually realized by the system".
   Every produced token is recorded to the trace (matched later against
   the C reference model and against level 2), and every firing's work
   units feed the execution profile that drives the HW/SW partition. *)

module Sim = Symbad_sim
module Annotation = Symbad_tlm.Annotation

type result = {
  trace : Sim.Trace.t;
  profile : Annotation.Profile.t;
  kernel_stats : Sim.Kernel.stats;
}

let run (graph : Task_graph.t) =
  let kernel = Sim.Kernel.create () in
  let trace = Sim.Trace.create () in
  let profile = Annotation.Profile.create () in
  let fifos : (string, Token.t Sim.Fifo.t) Hashtbl.t = Hashtbl.create 32 in
  let fifo_of channel =
    match Hashtbl.find_opt fifos channel with
    | Some f -> f
    | None ->
        let f = Sim.Fifo.create () in
        Hashtbl.add fifos channel f;
        f
  in
  let record_tokens task channels tokens =
    List.iter2
      (fun channel token ->
        Sim.Trace.record trace
          ~time:(Sim.Kernel.now kernel)
          ~source:task ~label:channel (Token.digest token))
      channels tokens
  in
  let spawn_task (t : Task_graph.task) =
    Sim.Kernel.spawn kernel (fun () ->
        let rec loop firing_index =
          let inputs =
            List.map (fun c -> Sim.Fifo.get (fifo_of c)) t.Task_graph.inputs
          in
          match t.Task_graph.fire ~firing_index inputs with
          | None -> ()
          | Some { Task_graph.outputs; work } ->
              Annotation.Profile.record profile ~task:t.Task_graph.name
                ~units:work;
              record_tokens t.Task_graph.name t.Task_graph.outputs outputs;
              List.iter2
                (fun c token -> Sim.Fifo.put (fifo_of c) token)
                t.Task_graph.outputs outputs;
              loop (firing_index + 1)
        in
        loop 0)
  in
  List.iter spawn_task graph.Task_graph.tasks;
  (* a non-source task still blocked on inputs simply never fired again;
     the kernel drains when sources end and all tokens are consumed, and
     disposing it unwinds the blocked tasks *)
  Fun.protect ~finally:(fun () -> Sim.Kernel.dispose kernel) @@ fun () ->
  Sim.Kernel.run kernel;
  { trace; profile; kernel_stats = Sim.Kernel.stats kernel }
