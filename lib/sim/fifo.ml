(* Bounded point-to-point FIFO channel with blocking semantics, the level-1
   communication primitive of the flow.  Occupancy statistics feed the LPV
   FIFO-dimensioning analysis at level 2; the drop counter and the
   injectable loss predicate feed the platform fault-injection campaigns
   at level 3. *)

type 'a t = {
  capacity : int; (* 0 = unbounded *)
  items : 'a Queue.t;
  mutable readers : (unit -> unit) list;
  mutable writers : (unit -> unit) list;
  mutable total_puts : int;
  mutable total_gets : int;
  mutable max_occupancy : int;
  mutable total_drops : int;
  mutable put_attempts : int;
  mutable loss : (int -> bool) option;
}

let create ?(capacity = 0) () =
  if capacity < 0 then invalid_arg "Fifo.create: negative capacity";
  {
    capacity;
    items = Queue.create ();
    readers = [];
    writers = [];
    total_puts = 0;
    total_gets = 0;
    max_occupancy = 0;
    total_drops = 0;
    put_attempts = 0;
    loss = None;
  }

let is_full f = f.capacity > 0 && Queue.length f.items >= f.capacity
let drops f = f.total_drops
let set_loss f p = f.loss <- p

let wake_all waiters = List.iter (fun resume -> resume ()) waiters

let wake_readers f =
  let ws = f.readers in
  f.readers <- [];
  wake_all ws

let wake_writers f =
  let ws = f.writers in
  f.writers <- [];
  wake_all ws

let enqueue f x =
  Queue.push x f.items;
  f.total_puts <- f.total_puts + 1;
  if Queue.length f.items > f.max_occupancy then
    f.max_occupancy <- Queue.length f.items;
  wake_readers f

(* The loss predicate sees the write-attempt index, not the enqueue
   count, so an injected fault plan addresses the k-th offered token
   even when earlier ones were dropped. *)
let lossy f =
  let i = f.put_attempts in
  f.put_attempts <- i + 1;
  match f.loss with
  | Some p when p i ->
      f.total_drops <- f.total_drops + 1;
      true
  | _ -> false

let rec wait_put f x =
  if is_full f then begin
    Process.suspend (fun resume -> f.writers <- resume :: f.writers);
    wait_put f x
  end
  else enqueue f x

let put f x = if lossy f then () else wait_put f x

let rec get f =
  match Queue.take_opt f.items with
  | Some x ->
      f.total_gets <- f.total_gets + 1;
      wake_writers f;
      x
  | None ->
      Process.suspend (fun resume -> f.readers <- resume :: f.readers);
      get f

type occupancy = {
  puts : int;
  gets : int;
  max_occupancy : int;
  drops : int;
}

let occupancy f =
  {
    puts = f.total_puts;
    gets = f.total_gets;
    max_occupancy = f.max_occupancy;
    drops = f.total_drops;
  }
