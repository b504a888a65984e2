(* Log-scale histogram over non-negative integers.

   Bucket 0 holds the value 0 (and any clamped negatives); bucket i >= 1
   holds the half-open power-of-two range [2^(i-1), 2^i).  63 value
   buckets cover the whole non-negative native-int range, max_int
   included, so durations in nanoseconds never overflow the axis. *)

let buckets = 64

type t = {
  counts : int array;
  mutable count : int;
  mutable sum : float;  (* float: max_int observations must not wrap *)
  mutable min_value : int;
  mutable max_value : int;
}

let create () =
  {
    counts = Array.make buckets 0;
    count = 0;
    sum = 0.;
    min_value = 0;
    max_value = 0;
  }

let bucket_index v =
  if v <= 0 then 0
  else
    (* index = floor(log2 v) + 1, by position of the highest set bit *)
    let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + 1) in
    go v 0

let bucket_bounds i =
  if i < 0 || i >= buckets then invalid_arg "Histogram.bucket_bounds"
  else if i = 0 then (0, 0)
  else
    let lo = 1 lsl (i - 1) in
    let hi = if i >= 63 then max_int else (1 lsl i) - 1 in
    (lo, hi)

let observe h v =
  let v = if v < 0 then 0 else v in
  h.counts.(bucket_index v) <- h.counts.(bucket_index v) + 1;
  if h.count = 0 then begin
    h.min_value <- v;
    h.max_value <- v
  end
  else begin
    if v < h.min_value then h.min_value <- v;
    if v > h.max_value then h.max_value <- v
  end;
  h.count <- h.count + 1;
  h.sum <- h.sum +. float_of_int v

let count h = h.count
let sum h = h.sum
let min_value h = h.min_value
let max_value h = h.max_value
let mean h = if h.count = 0 then 0. else h.sum /. float_of_int h.count

let nonempty_buckets h =
  let acc = ref [] in
  for i = buckets - 1 downto 0 do
    if h.counts.(i) > 0 then
      let lo, hi = bucket_bounds i in
      acc := (lo, hi, h.counts.(i)) :: !acc
  done;
  !acc

let absorb h other =
  if other.count > 0 then begin
    Array.iteri (fun i c -> h.counts.(i) <- h.counts.(i) + c) other.counts;
    if h.count = 0 then begin
      h.min_value <- other.min_value;
      h.max_value <- other.max_value
    end
    else begin
      h.min_value <- min h.min_value other.min_value;
      h.max_value <- max h.max_value other.max_value
    end;
    h.count <- h.count + other.count;
    h.sum <- h.sum +. other.sum
  end

let reset h =
  Array.fill h.counts 0 buckets 0;
  h.count <- 0;
  h.sum <- 0.;
  h.min_value <- 0;
  h.max_value <- 0
