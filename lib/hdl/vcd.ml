(* VCD (Value Change Dump) emission for netlist simulations, so waveform
   viewers (GTKWave etc.) can inspect the RTL runs. *)

type signal = { name : string; width : int; id : string }

type t = {
  buffer : Buffer.t;
  signals : signal list;
  mutable last : (string * int) list;  (* signal name -> last dumped value *)
}

(* one 100 MHz cycle *)
let timescale_ns = 10

(* VCD identifier characters: printable ASCII 33..126. *)
let id_of_index i =
  let base = 94 in
  let rec go i acc =
    let c = Char.chr (33 + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

let create nl =
  let signals =
    List.mapi
      (fun i (name, width) -> { name; width; id = id_of_index i })
      (List.map (fun (n, w) -> (n, w)) (Netlist.inputs nl)
      @ List.map
          (fun (r : Netlist.register) -> (r.Netlist.name, r.Netlist.width))
          (Netlist.registers nl))
  in
  {
    buffer = Buffer.create 1024;
    signals;
    last = [];
  }

let emit_header t ~module_name =
  Buffer.add_string t.buffer "$date synthetic $end\n";
  Buffer.add_string t.buffer "$version symbad $end\n";
  Buffer.add_string t.buffer
    (Printf.sprintf "$timescale %dns $end\n" timescale_ns);
  Buffer.add_string t.buffer
    (Printf.sprintf "$scope module %s $end\n" module_name);
  List.iter
    (fun s ->
      Buffer.add_string t.buffer
        (Printf.sprintf "$var wire %d %s %s $end\n" s.width s.id s.name))
    t.signals;
  Buffer.add_string t.buffer "$upscope $end\n$enddefinitions $end\n"

let binary_of value width =
  String.init width (fun i ->
      if (value lsr (width - 1 - i)) land 1 = 1 then '1' else '0')

let dump_value t s value =
  if s.width = 1 then
    Buffer.add_string t.buffer (Printf.sprintf "%d%s\n" (value land 1) s.id)
  else
    Buffer.add_string t.buffer
      (Printf.sprintf "b%s %s\n" (binary_of value s.width) s.id)

(* Record the signal values at one cycle; only changes are dumped. *)
let sample t ~cycle values =
  Buffer.add_string t.buffer (Printf.sprintf "#%d\n" (cycle * timescale_ns));
  List.iter
    (fun s ->
      match List.assoc_opt s.name values with
      | None -> ()
      | Some v ->
          let changed =
            match List.assoc_opt s.name t.last with
            | Some old -> old <> v
            | None -> true
          in
          if changed then begin
            dump_value t s v;
            t.last <- (s.name, v) :: List.remove_assoc s.name t.last
          end)
    t.signals

let contents t = Buffer.contents t.buffer

(* Simulate a stimulus and return the VCD text. *)
let of_simulation nl stimulus =
  let vcd = create nl in
  emit_header vcd ~module_name:(Netlist.name nl);
  let sim = Simulator.create nl in
  List.iteri
    (fun cycle inputs ->
      let values =
        List.map (fun (n, v) -> (n, Bitvec.to_int v)) inputs
        @ List.map (fun (n, v) -> (n, Bitvec.to_int v)) (Simulator.state sim)
      in
      sample vcd ~cycle values;
      Simulator.step sim ~inputs)
    stimulus;
  contents vcd
