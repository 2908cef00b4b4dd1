(* Checks of the benchmark's own arithmetic; run before every measurement
   and by `dune runtest`. *)

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "self-test FAILED: %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

let expect_raises name f =
  expect name (match f () with _ -> false | exception Invalid_argument _ -> true)

let run () =
  failures := 0;
  let open Stats in
  let ten = List.init 10 (fun i -> float_of_int (10 - i)) in
  (* median and nearest-rank percentiles, with the sample counts they need *)
  expect "median odd" (median [ 3.; 1.; 2. ] = 2.);
  expect "median even" (median [ 4.; 1.; 3.; 2. ] = 2.5);
  expect_raises "median of nothing" (fun () -> median []);
  expect "p90 of 10" (percentile 90. ten = 9.);
  expect "p100 is the max" (percentile 100. ten = 10.);
  expect "p0 is the min" (percentile 0. ten = 1.);
  let thousand = List.init 1000 (fun i -> float_of_int (i + 1)) in
  expect "p99 of 1000 leaves ten above" (percentile 99. thousand = 990.);
  expect "p50 of 1 sample" (percentile 50. [ 7. ] = 7.);
  expect_raises "percentile of nothing" (fun () -> percentile 99. []);
  expect "mean" (close (mean [ 1.; 2.; 6. ]) 3.);
  expect "tail mean 10% of 10" (tail_mean 0.1 ten = 10.);
  expect "tail mean 20% of 10" (close (tail_mean 0.2 ten) 9.5);
  expect "tail mean 1% of 1000 is its top ten" (close (tail_mean 0.01 thousand) 995.5);
  expect "tail mean keeps one sample" (tail_mean 0.01 [ 3.; 1. ] = 3.);
  expect_raises "tail mean of nothing" (fun () -> tail_mean 0.1 []);
  (* quartiles match Python's statistics.quantiles(n=4) *)
  let same (a, b, c) (x, y, z) = close a x && close b y && close c z in
  expect "quartiles of 1..10" (same (quartiles ten) (2.75, 5.5, 8.25));
  expect "quartiles of 3" (same (quartiles [ 3.; 1.; 2. ]) (1., 2., 3.));
  expect "quartiles of 2" (same (quartiles [ 5.; 1. ]) (0., 3., 6.));
  expect "quartiles of 5" (same (quartiles [ 10.; 12.; 11.; 30.; 9. ]) (9.5, 11., 21.));
  expect "spread of 5" (close (spread [ 10.; 12.; 11.; 30.; 9. ]) (11.5 /. 11.));
  expect "spread of constants" (spread [ 4.; 4.; 4. ] = 0.);
  expect_raises "quartiles of 1" (fun () -> quartiles [ 1. ]);
  (* exec_ratio: geometric mean, a missing schedule scores the cap *)
  expect "exec_ratio plain" (close (exec_ratio [ (Some 100, Some 100); (Some 100, Some 400) ]) 2.);
  expect "exec_ratio cap" (close (exec_ratio [ (Some 100, None) ]) failure_ratio);
  expect "exec_ratio cap mixed"
    (close (exec_ratio [ (Some 200, Some 100); (Some 50, None) ]) (sqrt (0.5 *. failure_ratio)));
  expect "exec_ratio no original" (close (exec_ratio [ (None, Some 10) ]) failure_ratio);
  (* span self time: children's union, clipped to the parent *)
  expect "self no children" (close (self_time ~start:0. ~stop:10. []) 10.);
  expect "self disjoint" (close (self_time ~start:0. ~stop:10. [ (1., 3.); (5., 6.) ]) 7.);
  expect "self overlapping" (close (self_time ~start:0. ~stop:10. [ (1., 4.); (3., 6.) ]) 5.);
  expect "self clipped" (close (self_time ~start:0. ~stop:10. [ (-5., 2.); (9., 12.) ]) 7.);
  expect "self nested" (close (self_time ~start:0. ~stop:10. [ (2., 8.); (3., 4.) ]) 4.);
  expect "self covered" (close (self_time ~start:0. ~stop:10. [ (0., 10.) ]) 0.);
  let spans =
    Trace.
      [
        { id = 1; name = "request"; request = 1; parent = None; start = 0.; stop = 10. };
        { id = 2; name = "pool.build"; request = 1; parent = Some 1; start = 1.; stop = 4. };
        { id = 3; name = "codesign.run"; request = 1; parent = Some 1; start = 4.; stop = 9. };
      ]
  in
  let selfs = Trace.self_times spans in
  expect "trace self request" (close (fst (Trace.self_ms selfs "request")) 2000.);
  expect "trace self leaf" (close (fst (Trace.self_ms selfs "codesign.run")) 5000.);
  (* the bound comparison *)
  expect "lower within bound" (not (regressed ~better:Lower ~bound:0.1 ~base:1. ~value:1.09));
  expect "lower beyond bound" (regressed ~better:Lower ~bound:0.1 ~base:1. ~value:1.11);
  expect "lower improved" (not (regressed ~better:Lower ~bound:0.1 ~base:1. ~value:0.5));
  expect "higher beyond bound" (regressed ~better:Higher ~bound:0.1 ~base:10. ~value:8.9);
  expect "higher within bound" (not (regressed ~better:Higher ~bound:0.1 ~base:10. ~value:9.1));
  !failures = 0
