(* Helpers the workloads share. *)

module Rng = Mf_util.Rng

(* Spans and the serve daemon's state live here, inside the checkout. *)
let out_dir = ".perfbench-out"

(* Every run uses one worker domain per core. *)
let cores = Domain.recommended_domain_count ()
let jobs = cores

let record_cores () =
  Report.count "cores" cores;
  Report.count "jobs" jobs

(* Timed passes over a fixed input set: at least one, and another only
   while the last pass would still end within [seconds].  [pass] gets the
   pass span's id, to parent its requests' spans. *)
let timed_passes ~seconds pass =
  let t0 = Trace.now () in
  let rec go acc =
    let (), wall = Trace.span ~request:0 "pass" pass in
    let acc = wall :: acc in
    if Trace.now () -. t0 +. wall <= seconds then go acc else List.rev acc
  in
  go []

(* Set-up on cold-codesign and testgen (start the domain pool, load or
   generate the inputs) takes a fraction of a millisecond, and on the
   2-core reference box the cost of so short a call moved by up to 1.7x
   for seconds at a time as the host's load shifted between the cores.
   So set-up is sampled in two windows, one before the timed passes and
   one after them, [setup_samples] samples each; a sample is the mean of
   [setup_batch] set-ups back to back, and setup_s is the median sample.
   The pool's tear-down goes untimed: it is not set-up, and joining the
   workers waits on the other core.  Set-ups repeated for [setup_warmup_s]
   go untimed first: a process that starts on an idle box paid up to 2 ms
   per set-up, for about a second, to wake the other core. *)
let setup_samples = 21
let setup_batch = 10
let setup_warmup_s = 1.

let setup_window ~release f =
  List.init setup_samples (fun _ ->
      let wall = ref 0. in
      for _ = 1 to setup_batch do
        let v, dt = Trace.span ~request:0 "setup" (fun _ -> f ()) in
        wall := !wall +. dt;
        release v
      done;
      !wall /. float_of_int setup_batch)

(* The first window; returns a fresh set-up for the run with the samples. *)
let setup ~release f =
  let t0 = Trace.now () in
  while Trace.now () -. t0 < setup_warmup_s do
    release (f ())
  done;
  let samples = setup_window ~release f in
  (f (), samples)

(* The second window, once the run's own set-up is released. *)
let record_setup ~release f before =
  let samples = before @ setup_window ~release f in
  Report.metric ~n:(List.length samples) "setup_s" (Stats.median samples)

let sum_ints f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ms s = s *. 1e3

(* Tracing overhead: the traced pass against the untraced one, in % *)
let record_overhead ~untraced ~traced =
  Report.metric "trace.overhead_pct" ((traced -. untraced) /. untraced *. 100.);
  Report.count "trace.spans" (List.length (Trace.spans ()))

(* Process-wide counters read before and after a call, as deltas. *)
let ilp_nodes () = Atomic.get Mf_ilp.Ilp.Stats.nodes

let sched_delta f =
  let module S = Mf_sched.Scheduler.Stats in
  let a = S.snapshot () in
  let v = f () in
  let b = S.snapshot () in
  ( v,
    S.
      {
        runs = b.runs - a.runs;
        steps = b.steps - a.steps;
        routes = b.routes - a.routes;
        cutoffs = b.cutoffs - a.cutoffs;
      } )

(* Median wall time of [reps] calls of [f], in ms. *)
let probe_ms ~reps f =
  Stats.median
    (List.init reps (fun _ ->
         let t0 = Trace.now () in
         ignore (Sys.opaque_identity (f ()));
         ms (Trace.now () -. t0)))

(* Single-fault repairs of a deployed suite, the warm request of
   cold-codesign and testgen: one [Reconfig.repair] per single stuck-at
   fault of the chip (stuck-at-0 per channel edge, stuck-at-1 per valve).
   The whole fault universe rather than a seeded sample: single repairs
   take 2 ms to 2 s, and a seeded sample's slowest tenth moved 5x between
   seeds.  [Reconfig.repair] re-certifies every repair itself and returns
   an error when the repaired suite does not certify. *)
module Reconfig = Mf_repair.Reconfig

(* The single faults whose repair fails re-certification today (MF101: a
   repaired path still crosses the edge the fault blocks), by chip.  Each
   is a failed operation; a re-certification failure on any other fault
   makes the run incorrect. *)
let known_uncertified =
  [
    ("IVD_chip", "SA0@(3,2)-(4,2)");
    ("mRNA_chip", "SA0@(3,2)-(4,2)");
    ("mRNA_chip", "SA0@(4,2)-(4,3)");
  ]

(* The fault universe is repaired this many times over, round after
   round, and a fault's latency is the median of its rounds: one round's
   slowest tenth moved by a fifth from round to round in one process. *)
let repair_rounds = 3

type repairs = { mutable latencies_ms : float list; mutable stats : Reconfig.stats list }

let new_repairs () = { latencies_ms = []; stats = [] }

let repair_batch ~acc ?sharing ?parent ~id chip suite =
  let name = Mf_arch.Chip.name chip in
  let params = { Reconfig.default_params with Reconfig.jobs } in
  let repair fault =
    Report.attempt ();
    let rr, s =
      Trace.span ?parent ~request:id "repair" @@ fun _ ->
      Reconfig.repair ~params ?sharing chip suite [ fault ]
    in
    (match rr with
     | Ok rr -> acc.stats <- rr.Reconfig.stats :: acc.stats
     | Error f ->
       let fault = Format.asprintf "%a" (Mf_faults.Fault.pp chip) fault in
       let uncertified =
         String.starts_with ~prefix:"re-certification failed" f.Mf_util.Fail.reason
       in
       if uncertified && not (List.mem (name, fault) known_uncertified) then
         Report.violation "%s: repair of %s does not re-certify: %s" name fault
           (Mf_util.Fail.to_string f)
       else Report.failure "%s: repair of %s: %s" name fault (Mf_util.Fail.to_string f));
    ms s
  in
  let faults = Array.of_list (Mf_faults.Fault.all chip) in
  let rounds = List.init repair_rounds (fun _ -> Array.map repair faults) in
  Array.iteri
    (fun i _ ->
      acc.latencies_ms <- Stats.median (List.map (fun r -> r.(i)) rounds) :: acc.latencies_ms)
    faults

(* The mean of the faults' repair latencies, and the mean of their slowest
   10% (about 18 of the ~180 faults a pass repairs).  The mean, not the
   median: every run repairs the same faults, and the median of their
   bimodal latencies (most a few ms, the rest tens of ms) swung by a third
   between runs while the pass time moved by a tenth. *)
let warm_metrics acc =
  let n = List.length acc.latencies_ms in
  Report.metric ~n "warm_ms" (Stats.mean acc.latencies_ms);
  Report.metric ~n "warm_tail_ms" (Stats.tail_mean 0.1 acc.latencies_ms)

let repair_layer_metrics selfs acc =
  let repair_ms, n = Trace.self_ms selfs "repair" in
  Report.metric ~n "repair.ms" repair_ms;
  let st = acc.stats in
  Report.count "repair.rounds" (sum_ints (fun s -> s.Reconfig.rounds) st);
  Report.count "repair.damaged" (sum_ints (fun s -> s.Reconfig.damaged) st);
  Report.count "repair.candidates" (sum_ints (fun s -> s.Reconfig.candidates) st);
  Report.count "repair.added" (sum_ints (fun s -> s.Reconfig.added) st);
  Report.count "repair.pivots"
    (sum_ints
       (fun s -> s.Reconfig.solver.Mf_ilp.Ilp.rs_primal_pivots + s.Reconfig.solver.rs_dual_pivots)
       st)
