(* Binary min-heap of pending events, ordered by (time, insertion sequence)
   so that same-time events fire in FIFO order (delta-cycle determinism). *)

type 'a event = { time : Time.t; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a event array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a event;
}

let create ~dummy_payload =
  let dummy = { time = Time.zero; seq = 0; payload = dummy_payload } in
  { heap = Array.make 64 dummy; size = 0; next_seq = 0; dummy }

let is_empty q = q.size = 0
let length q = q.size
let peek_time q = if q.size = 0 then None else Some q.heap.(0).time

let before a b =
  let c = Time.compare a.time b.time in
  if c <> 0 then c < 0 else a.seq < b.seq

let grow q =
  let heap = Array.make (2 * Array.length q.heap) q.dummy in
  Array.blit q.heap 0 heap 0 q.size;
  q.heap <- heap

let push q time payload =
  if q.size = Array.length q.heap then grow q;
  let ev = { time; seq = q.next_seq; payload } in
  q.next_seq <- q.next_seq + 1;
  (* sift up *)
  let rec up i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if before ev q.heap.(parent) then begin
        q.heap.(i) <- q.heap.(parent);
        up parent
      end
      else q.heap.(i) <- ev
    end
    else q.heap.(i) <- ev
  in
  q.size <- q.size + 1;
  up (q.size - 1)

let pop q =
  if q.size = 0 then None
  else begin
    let top = q.heap.(0) in
    q.size <- q.size - 1;
    let last = q.heap.(q.size) in
    q.heap.(q.size) <- q.dummy;
    if q.size > 0 then begin
      (* sift down *)
      let rec down i =
        let l = (2 * i) + 1 and r = (2 * i) + 2 in
        let smallest =
          if l < q.size && before q.heap.(l) last then l else i
        in
        let smallest =
          if r < q.size && before q.heap.(r)
               (if smallest = i then last else q.heap.(smallest))
          then r
          else smallest
        in
        if smallest <> i then begin
          q.heap.(i) <- q.heap.(smallest);
          down smallest
        end
        else q.heap.(i) <- last
      in
      down 0
    end;
    Some (top.time, top.payload)
  end
