(* The benchmark's own arithmetic: order statistics, the Table 1 ratio,
   span self time and the regression-bound comparison.  Pure functions,
   checked by [Selftest]. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it.  With n samples, p99 leaves n - ceil(0.99 n)
   samples above it — at least ten once n >= 1000. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples"
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.)) in
    a.(max 1 (min n rank) - 1)

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: no samples"
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Mean of the slowest [share] of the samples (at least one): a tail
   figure that, unlike a quantile, stays put when the tail is a separate
   mode whose weight drifts around the quantile's rank. *)
let tail_mean share xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail_mean: no samples"
  else
    let k = max 1 (int_of_float (Float.ceil ((share *. float_of_int n) -. 1e-9))) in
    mean (Array.to_list (Array.sub a (n - k) k))

(* Python's [statistics.quantiles(xs, n=4)] (method "exclusive"): the
   quartiles the acceptance rule uses. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need two samples"
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* Inter-quartile range as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs q2

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no samples"
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(* Score a pair without a schedule on the DFT chip (or on the original)
   as twice the original makespan, so fixing it shows as a gain. *)
let failure_ratio = 2.0

let exec_ratio pairs =
  geomean
    (List.map
       (function
         | Some orig, Some dft when orig > 0 -> float_of_int dft /. float_of_int orig
         | _ -> failure_ratio)
       pairs)

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) -> if a <= cb then (total, Some (ca, Float.max cb b)) else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time: its duration minus the part its children cover. *)
let self_time ~start ~stop children = stop -. start -. covered ~lo:start ~hi:stop children

type better = Lower | Higher

(* [regressed] holds when [value] is worse than [base] by more than
   [bound], a share of [base]. *)
let regressed ~better ~bound ~base ~value =
  match better with
  | Lower -> value > base *. (1. +. bound)
  | Higher -> value < base *. (1. -. bound)
