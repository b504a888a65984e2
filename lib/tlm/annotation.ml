(* Timing annotation.

   Level-1 models are untimed; at level 2 the Vista flow annotates the SW
   partition automatically from a CPU model and profiling data, while HW
   timing is annotated manually from designer experience.  We reproduce
   both: a task's abstract profile weight (work units per firing, measured
   by level-1 execution profiling) is converted into cycles by a per-target
   cost model. *)

type target =
  | Sw  (* runs on the embedded CPU (ARM7TDMI class) *)
  | Hw  (* hardwired logic *)
  | Fpga  (* soft hardware inside the embedded FPGA *)

type t = {
  sw_cycles_per_unit : int;
      (* CPU cycles per work unit: instruction count x CPI *)
  hw_cycles_per_unit : int;  (* hardwired datapath, pipelined *)
  fpga_cycles_per_unit : int;  (* FPGA logic is slower than hard gates *)
}

let default = { sw_cycles_per_unit = 12; hw_cycles_per_unit = 1; fpga_cycles_per_unit = 2 }

let cycles t ~target ~weight =
  if weight < 0 then invalid_arg "Annotation.cycles: negative weight";
  match target with
  | Sw -> weight * t.sw_cycles_per_unit
  | Hw -> weight * t.hw_cycles_per_unit
  | Fpga -> weight * t.fpga_cycles_per_unit

(* A profile maps task names to measured work units per firing.  It is
   produced by level-1 execution (see Core.Level1) and consumed here. *)
module Profile = struct
  type entry = { task : string; firings : int; total_units : int }

  type nonrec t = (string, entry) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let record (p : t) ~task ~units =
    match Hashtbl.find_opt p task with
    | Some e ->
        Hashtbl.replace p task
          { e with firings = e.firings + 1; total_units = e.total_units + units }
    | None -> Hashtbl.add p task { task; firings = 1; total_units = units }

  let units_per_firing (p : t) task =
    match Hashtbl.find_opt p task with
    | None -> 0
    | Some e -> if e.firings = 0 then 0 else e.total_units / e.firings

  let entries (p : t) =
    Hashtbl.fold (fun _ e acc -> e :: acc) p []
    |> List.sort (fun a b -> compare b.total_units a.total_units)

  (* The "ranking of the most demanding tasks" that drives the designer's
     HW/SW partition. *)
  let ranking (p : t) = List.map (fun e -> (e.task, e.total_units)) (entries p)

  let pp fmt (p : t) =
    List.iter
      (fun e ->
        Fmt.pf fmt "%-12s firings=%-6d units=%d@." e.task e.firings
          e.total_units)
      (entries p)
end
