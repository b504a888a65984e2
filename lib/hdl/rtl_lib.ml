(* The predefined RTL IPs of level 4.

   "In our test case we can easily support a few pre-defined IPs" — these
   are they: the two FPGA-mapped datapaths of the case study (DISTANCE and
   ROOT), the RTL-to-TL handshake wrapper, and a FIFO controller.  Each
   also comes in a seeded-bug variant used by the ATPG / model-checking /
   PCC experiments to show the verification flow catching real errors. *)

let zero w = Expr.const ~width:w 0

(* zero-extend e (of width [from]) to width [to_]. *)
let zext e ~from ~to_ =
  if to_ < from then invalid_arg "Rtl_lib.zext";
  if to_ = from then e else Expr.concat (zero (to_ - from)) e

let shr e ~width ~by =
  if by = 0 then e
  else Expr.concat (zero by) (Expr.slice e ~hi:(width - 1) ~lo:by)

let bool_and a b = Expr.and_ a b
let bool_not a = Expr.not_ a
let is_zero e ~width = Expr.eq e (zero width)
let tru = Expr.const ~width:1 1

(* --- Simple counter (quickstart / teaching example) ------------------- *)

let counter ~width =
  let count = Expr.reg "count" in
  let next =
    Expr.mux (Expr.input "clear") (zero width)
      (Expr.mux (Expr.input "enable")
         (Expr.add count (Expr.const ~width 1))
         count)
  in
  Netlist.make ~name:(Printf.sprintf "counter%d" width)
    ~inputs:[ ("enable", 1); ("clear", 1) ]
    ~registers:
      [ { Netlist.name = "count"; width; init = Bitvec.zero ~width; next } ]
    ~outputs:
      [
        ("count", count);
        ("at_max", Expr.eq count (Expr.const ~width ((1 lsl width) - 1)));
      ]

(* --- DISTANCE datapath ------------------------------------------------ *)
(* Accumulates (a-b)^2 over a streamed feature vector:
     start: acc <- 0;  valid: acc <- acc + (a-b)^2.
   Arithmetic is done at [acc_width]; because (-d)^2 = d^2 modulo 2^w,
   the zero-extended subtraction squares correctly. *)

(* [next] wraps the [valid]-gated accumulation into the accumulator's
   next state; the twins differ only there. *)
let distance ~name ~next ~data_width ~acc_width =
  let aw = acc_width in
  let a = zext (Expr.input "a") ~from:data_width ~to_:aw in
  let b = zext (Expr.input "b") ~from:data_width ~to_:aw in
  let acc = Expr.reg "acc" in
  let diff = Expr.sub a b in
  let sq = Expr.mul diff diff in
  let next = next (Expr.mux (Expr.input "valid") (Expr.add acc sq) acc) in
  Netlist.make ~name
    ~inputs:[ ("start", 1); ("valid", 1); ("a", data_width); ("b", data_width) ]
    ~registers:
      [ { Netlist.name = "acc"; width = aw; init = Bitvec.zero ~width:aw; next } ]
    ~outputs:[ ("acc", acc) ]

let distance_datapath ?(data_width = 8) ?(acc_width = 16) () =
  distance ~name:"distance" ~data_width ~acc_width
    ~next:(Expr.mux (Expr.input "start") (zero acc_width))

(* Seeded design error: the accumulator is not cleared on [start] — the
   "incorrect memory initialization" class of bug Laerte++ found at
   level 1.  Detectable only by a test that runs two vectors back to
   back. *)
let distance_datapath_buggy ?(data_width = 8) ?(acc_width = 16) () =
  distance ~name:"distance_buggy" ~data_width ~acc_width ~next:Fun.id

(* --- ROOT datapath ----------------------------------------------------- *)
(* Non-restoring integer square root, one result bit per two input bits.
   Mirrors Symbad_image.Root.isqrt but with the fixed iteration count a
   hardware implementation uses. *)

let root_datapath ?(width = 8) () =
  let w = width in
  if w < 4 || w mod 2 <> 0 then invalid_arg "Rtl_lib.root_datapath: width";
  let we = w + 2 in
  (* extended width for the subtract/compare *)
  let num = Expr.reg "num"
  and res = Expr.reg "res"
  and bit = Expr.reg "bit"
  and nsave = Expr.reg "nsave"
  and busy = Expr.reg "busy" in
  let start = Expr.input "start" and n = Expr.input "n" in
  let stepping = bool_and busy (bool_not (is_zero bit ~width:w)) in
  let sum = Expr.add (zext res ~from:w ~to_:we) (zext bit ~from:w ~to_:we) in
  let cond = Expr.ule sum (zext num ~from:w ~to_:we) in
  let num_minus =
    Expr.slice (Expr.sub (zext num ~from:w ~to_:we) sum) ~hi:(w - 1) ~lo:0
  in
  let res_half = shr res ~width:w ~by:1 in
  let mux_step yes no = Expr.mux stepping (Expr.mux cond yes no) in
  let next_num =
    Expr.mux start n (mux_step num_minus num num)
  in
  let next_res =
    Expr.mux start (zero w)
      (mux_step (Expr.add res_half bit) res_half res)
  in
  let next_bit =
    Expr.mux start (Expr.const ~width:w (1 lsl (w - 2)))
      (Expr.mux stepping (shr bit ~width:w ~by:2) bit)
  in
  let next_nsave = Expr.mux start n nsave in
  let next_busy =
    Expr.mux start tru (Expr.mux (is_zero bit ~width:w) (zero 1) busy)
  in
  let reg name width init next = { Netlist.name; width; init; next } in
  Netlist.make ~name:"root"
    ~inputs:[ ("start", 1); ("n", w) ]
    ~registers:
      [
        reg "num" w (Bitvec.zero ~width:w) next_num;
        reg "res" w (Bitvec.zero ~width:w) next_res;
        reg "bit" w (Bitvec.zero ~width:w) next_bit;
        reg "nsave" w (Bitvec.zero ~width:w) next_nsave;
        reg "busy" 1 (Bitvec.zero ~width:1) next_busy;
      ]
    ~outputs:
      [
        ("result", res);
        ("busy", busy);
        ("done", bool_and busy (is_zero bit ~width:w));
      ]

(* The "result is really the integer square root" property of the ROOT
   datapath: done => res^2 <= n < (res+1)^2, evaluated at 2w bits. *)
let root_correctness ~width () =
  let w = width in
  let w2 = 2 * w in
  let res = zext (Expr.reg "res") ~from:w ~to_:w2 in
  let n = zext (Expr.reg "nsave") ~from:w ~to_:w2 in
  let done_ =
    bool_and (Expr.reg "busy") (is_zero (Expr.reg "bit") ~width:w)
  in
  let res1 = Expr.add res (Expr.const ~width:w2 1) in
  let lower = Expr.ule (Expr.mul res res) n in
  let upper = Expr.ult n (Expr.mul res1 res1) in
  Expr.or_ (bool_not done_) (bool_and lower upper)

(* --- RTL <-> TL handshake wrapper -------------------------------------- *)
(* One-slot protocol converter: the RTL side offers (req, data); the TL
   side drains with [take].  [ack] pulses when a word is accepted. *)

(* [ack] maps the accept condition to the [ack] output; the twins
   differ only there. *)
let wrapper ~name ~ack ~data_width =
  let full = Expr.reg "full" and buf = Expr.reg "buf" in
  let req = Expr.input "req"
  and data = Expr.input "data"
  and take = Expr.input "take" in
  let accept = bool_and req (bool_not full) in
  let drain = bool_and take full in
  let next_full = Expr.mux accept tru (Expr.mux drain (zero 1) full) in
  let next_buf = Expr.mux accept data buf in
  Netlist.make ~name
    ~inputs:[ ("req", 1); ("data", data_width); ("take", 1) ]
    ~registers:
      [
        { Netlist.name = "full"; width = 1; init = Bitvec.zero ~width:1;
          next = next_full };
        { Netlist.name = "buf"; width = data_width;
          init = Bitvec.zero ~width:data_width; next = next_buf };
      ]
    ~outputs:[ ("ack", ack accept); ("valid", full); ("out", buf) ]

let handshake_wrapper ?(data_width = 8) () =
  wrapper ~name:"wrapper" ~data_width ~ack:Fun.id

(* Seeded protocol bug: acknowledges even when full, silently dropping the
   word (the buffered data is overwritten only when not full, so an ack
   without storage loses data). *)
let handshake_wrapper_buggy ?(data_width = 8) () =
  wrapper ~name:"wrapper_buggy" ~data_width
    ~ack:(Fun.const (Expr.input "req"))

(* --- FIFO controller ---------------------------------------------------- *)
(* Counter-based flags for a FIFO of depth 2^addr_width. *)

(* [full_at] maps the depth to the count at which [full] asserts; the
   twins differ only there. *)
let fifo ~name ~full_at ~addr_width =
  let cw = addr_width + 1 in
  let depth = 1 lsl addr_width in
  let count = Expr.reg "count" in
  let full = Expr.eq count (Expr.const ~width:cw (full_at depth)) in
  let empty = is_zero count ~width:cw in
  let push_ok = bool_and (Expr.input "push") (bool_not full) in
  let pop_ok = bool_and (Expr.input "pop") (bool_not empty) in
  let next =
    Expr.sub
      (Expr.add count (zext push_ok ~from:1 ~to_:cw))
      (zext pop_ok ~from:1 ~to_:cw)
  in
  Netlist.make ~name
    ~inputs:[ ("push", 1); ("pop", 1) ]
    ~registers:
      [ { Netlist.name = "count"; width = cw; init = Bitvec.zero ~width:cw;
          next } ]
    ~outputs:[ ("full", full); ("empty", empty); ("count", count) ]

let fifo_ctrl ?(addr_width = 3) () =
  fifo ~name:"fifo_ctrl" ~addr_width ~full_at:Fun.id

(* Seeded off-by-one: full asserts one entry late, so a push at
   count = depth overflows the storage. *)
let fifo_ctrl_buggy ?(addr_width = 3) () =
  fifo ~name:"fifo_ctrl_buggy" ~addr_width ~full_at:succ

(* --- WINNER: streaming argmin FSM -------------------------------------- *)
(* start clears; each valid cycle streams one candidate distance; the
   running minimum and its index are registered.  [idx_width] bounds the
   candidate count. *)

let argmin_datapath ?(data_width = 10) ?(idx_width = 5) () =
  let best = Expr.reg "best"
  and best_idx = Expr.reg "best_idx"
  and count = Expr.reg "count" in
  let start = Expr.input "start"
  and valid = Expr.input "valid"
  and d = Expr.input "d" in
  let better = Expr.ult d best in
  let max_d = Bitvec.ones ~width:data_width in
  let next_best =
    Expr.mux start (Expr.Const max_d)
      (Expr.mux (Expr.and_ valid better) d best)
  in
  let next_best_idx =
    Expr.mux start (zero idx_width)
      (Expr.mux (Expr.and_ valid better) count best_idx)
  in
  let next_count =
    Expr.mux start (zero idx_width)
      (Expr.mux valid (Expr.add count (Expr.const ~width:idx_width 1)) count)
  in
  Netlist.make ~name:"argmin"
    ~inputs:[ ("start", 1); ("valid", 1); ("d", data_width) ]
    ~registers:
      [
        { Netlist.name = "best"; width = data_width; init = max_d;
          next = next_best };
        { Netlist.name = "best_idx"; width = idx_width;
          init = Bitvec.zero ~width:idx_width; next = next_best_idx };
        { Netlist.name = "count"; width = idx_width;
          init = Bitvec.zero ~width:idx_width; next = next_count };
      ]
    ~outputs:[ ("best", best); ("best_idx", best_idx); ("count", count) ]
