(* Memory inspection (the Laerte++ capability that found the level-1
   design errors: "the memory inspection capability of Laerte++ allows
   us to quickly identify and remove design errors related to incorrect
   memory initialization").

   An inspected memory tracks, per cell, whether it has been written
   since reset; reads of never-written cells are recorded as
   uninitialised-read violations with the address and an access index,
   instead of silently returning stale data (the behaviour that
   "reflected on a less precise images matching"). *)

type violation = {
  memory : string;
  address : int;
  access_index : int;  (* how many accesses happened before this one *)
}

type t = {
  name : string;
  data : int array;
  written : bool array;
  mutable accesses : int;
  mutable violations : violation list;
}

(* what an uninitialised cell reads as *)
let stale_value = 0x2A

let create ~size name =
  if size <= 0 then invalid_arg "Memcheck.create: size";
  {
    name;
    data = Array.make size 0;
    written = Array.make size false;
    accesses = 0;
    violations = [];
  }

let check_addr m addr =
  if addr < 0 || addr >= Array.length m.data then
    invalid_arg (Printf.sprintf "Memcheck.%s: address %d" m.name addr)

let write m ~addr value =
  check_addr m addr;
  m.accesses <- m.accesses + 1;
  m.data.(addr) <- value;
  m.written.(addr) <- true

let read m ~addr =
  check_addr m addr;
  let idx = m.accesses in
  m.accesses <- m.accesses + 1;
  if m.written.(addr) then m.data.(addr)
  else begin
    m.violations <-
      { memory = m.name; address = addr; access_index = idx } :: m.violations;
    stale_value
  end

let clear_all m =
  (* an explicit initialisation loop, the fix for the error class *)
  for addr = 0 to Array.length m.data - 1 do
    write m ~addr 0
  done

let violations m = List.rev m.violations
let is_clean m = m.violations = []

let pp_violation fmt v =
  Fmt.pf fmt "uninitialised read of %s[%d] (access #%d)" v.memory v.address
    v.access_index

let report fmt m =
  match violations m with
  | [] -> Fmt.pf fmt "%s: no uninitialised reads@." m.name
  | vs ->
      Fmt.pf fmt "%s: %d uninitialised read(s)@." m.name (List.length vs);
      List.iter (fun v -> Fmt.pf fmt "  %a@." pp_violation v) vs

(* A behavioural model exercising the error class: an accumulation
   buffer that the buggy variant forgets to clear between frames.  Run
   under inspection, the buggy variant produces violations on its first
   frame; functionally, its second frame differs — exactly how the
   imprecise image matching manifested. *)
let accumulator_model ~clears_buffer ~cells =
  let mem = create ~size:cells "acc_buffer" in
  let frame values =
    if clears_buffer then clear_all mem;
    List.iteri
      (fun i v ->
        let addr = i mod cells in
        let old = read mem ~addr in
        write mem ~addr (old + v))
      values;
    List.init cells (fun addr -> read mem ~addr)
  in
  (mem, frame)
