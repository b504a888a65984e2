(* The benchmark's statistics, against values Python's [statistics]
   module gives for the same samples, and the span self-time rule. *)

open Symbad_perf

let check name ok = if not ok then failwith name
let close a b = Float.abs (a -. b) < 1e-9

let () =
  List.iter
    (fun (xs, (q1, q2, q3), med) ->
      let a, b, c = Stats.quartiles xs in
      check "quartiles" (close a q1 && close b q2 && close c q3);
      check "median" (close (Stats.median xs) med))
    [
      ([| 1.; 2. |], (0.75, 1.5, 2.25), 1.5);
      ([| 3.; 1.; 2. |], (1., 2., 3.), 2.);
      ([| 1.; 2.; 3.; 4. |], (1.25, 2.5, 3.75), 2.5);
      ([| 5.; 1.; 4.; 2.; 3. |], (1.5, 3., 4.5), 3.);
      (Array.init 10 (fun i -> float_of_int (10 * (i + 1))), (27.5, 55., 82.5), 55.);
      ([| 2.5; 0.5; 1.5; 9.; 4.; 4.; 7. |], (1.5, 4., 7.), 4.);
    ];
  let ramp n = Array.init n (fun i -> float_of_int (i + 1)) in
  check "p90 nearest rank" (Stats.percentile 90. (ramp 10) = 9.);
  (* a tail needs ten samples beyond it *)
  check "19 samples: no tail" (Stats.tail (ramp 19) = None);
  check "20 samples: p50" (Stats.tail (ramp 20) = Some (50., 10.));
  check "99 samples: p50" (Stats.tail (ramp 99) = Some (50., 50.));
  check "100 samples: p90" (Stats.tail (ramp 100) = Some (90., 90.));
  check "1000 samples: p99" (Stats.tail (ramp 1000) = Some (99., 990.));
  check "10000 samples: p99.9" (Stats.tail (ramp 10_000) = Some (99.9, 9990.));
  (* self time: a parent's children are subtracted, grandchildren are not *)
  let s id name parent start_ns end_ns = { Spans.id; name; parent; op = 0; start_ns; end_ns } in
  let self =
    Spans.self_times
      [ s 0 "op" None 0 100; s 1 "mc" (Some 0) 10 40; s 2 "sat" (Some 1) 15 35; s 3 "mc" (Some 0) 50 60 ]
  in
  check "self times" (self = [ ("op", 60); ("mc", 20); ("sat", 20) ])
