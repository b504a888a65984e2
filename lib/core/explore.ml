(* Architecture exploration: "a single configuration must be graded
   according to performance, silicon usage, power consumption".

   Each candidate mapping is simulated on the level-3 platform (with no
   FPGA contexts, that is level 2) and graded; the sweep reports all
   points and the Pareto-optimal subset.  The static-vs-reconfigurable
   comparison reproduces the paper's motivating trade-off: the all-HW
   "static approach where all HW resources were assumed simultaneously
   available" is fastest but pays full silicon area, while FPGA contexts
   time-share silicon at the price of reconfiguration traffic. *)

type grade = {
  mapping : Mapping.t;
  label : string;
  latency_ns : int;
  bus_busy_ns : int;
  bus_utilisation : float;
  bitstream_bytes : int;
  area : int;  (* silicon cost of the HW + FPGA fabric *)
  energy_proxy : float;  (* arbitrary units; see [energy_of] *)
}

(* Area model: hardwired modules pay their full area; FPGA candidates pay
   the fabric once (sized by the largest context) with a 2x density
   penalty for programmability. *)
let area_of ~task_area mapping =
  let hw_area =
    List.fold_left (fun acc t -> acc + task_area t) 0 (Mapping.hw_tasks mapping)
  in
  let fpga_tasks = Mapping.fpga_tasks mapping in
  let fabric =
    match Mapping.contexts mapping with
    | [] -> 0
    | contexts ->
        let context_area ctx =
          List.fold_left
            (fun acc (t, c) -> if String.equal c ctx then acc + task_area t else acc)
            0 fpga_tasks
        in
        2 * List.fold_left (fun m c -> max m (context_area c)) 0 contexts
  in
  hw_area + fabric

(* Energy proxy: CPU busy time weighs heavy (power-hungry core), HW logic
   light, bus traffic and bitstream downloads in between. *)
let energy_of ~latency_ns ~cpu_busy_ns ~bus_busy_ns ~bitstream_bytes =
  (1.0 *. float_of_int cpu_busy_ns)
  +. (0.2 *. float_of_int (latency_ns - cpu_busy_ns))
  +. (0.5 *. float_of_int bus_busy_ns)
  +. (4.0 *. float_of_int bitstream_bytes)

let grade ?(config = Level3.default_config) ~label graph mapping =
  let r = Level3.run ~config graph mapping in
  {
    mapping;
    label;
    latency_ns = r.Level3.latency_ns;
    bus_busy_ns = r.Level3.bus_report.Symbad_tlm.Bus.busy_ns;
    bus_utilisation = r.Level3.bus_report.Symbad_tlm.Bus.utilisation;
    bitstream_bytes = r.Level3.bus_report.Symbad_tlm.Bus.bitstream_bytes;
    area = area_of ~task_area:config.Level3.task_area mapping;
    energy_proxy =
      energy_of ~latency_ns:r.Level3.latency_ns
        ~cpu_busy_ns:r.Level3.cpu_stats.Symbad_tlm.Cpu.busy_ns
        ~bus_busy_ns:r.Level3.bus_report.Symbad_tlm.Bus.busy_ns
        ~bitstream_bytes:r.Level3.bus_report.Symbad_tlm.Bus.bitstream_bytes;
  }

(* Sweep HW-set sizes: map the [n] heaviest tasks to HW for n in
   [0, max_hw], grading each candidate — the II-III-IV iteration of the
   architecture-exploration loop.  Candidates simulate independently, so
   they fan out on the pool; progress goes through [symbad_obs] events
   (never stdout), emitted from the calling domain only. *)
let sweep_hw_sets ?pool ~profile ~pinned_sw ?(max_hw = 6) graph =
  let module Obs = Symbad_obs.Obs in
  let module Json = Symbad_obs.Json in
  let progress ~completed ~total =
    Obs.event
      ~args:[ ("completed", Json.Int completed); ("total", Json.Int total) ]
      "explore.progress"
  in
  Symbad_par.Par.map ~label:"explore.hw_sets" ~progress
    (Symbad_par.Par.get pool)
    (fun n ->
      let mapping = Mapping.of_ranking ~pinned_sw ~top_n:n profile graph in
      grade ~label:(Printf.sprintf "hw%d" n) graph mapping)
    (List.init (max_hw + 1) Fun.id)

(* Pareto filter over (latency, area, energy): keep points not dominated
   on all three axes. *)
let pareto points =
  let dominates a b =
    a.latency_ns <= b.latency_ns && a.area <= b.area
    && a.energy_proxy <= b.energy_proxy
    && (a.latency_ns < b.latency_ns || a.area < b.area
       || a.energy_proxy < b.energy_proxy)
  in
  List.filter (fun p -> not (List.exists (fun q -> dominates q p) points))
    points

let pp_grade fmt g =
  Fmt.pf fmt
    "%-12s latency %8dns  area %5d  bus %4.1f%%  bitstream %6dB  energy %.2e"
    g.label g.latency_ns g.area
    (100. *. g.bus_utilisation)
    g.bitstream_bytes g.energy_proxy
