(* cold-codesign: the designer's cold request on the Fig. 9 pairs at
   [quick_params] — pool build, two-level PSO, independent verify — then a
   batch of single-fault repairs of each deployed result.  The ILP pool
   and PSO fitness (scheduler + fault simulation) do the heavy work. *)

open Common
module Codesign = Mfdft.Codesign
module Pool = Mfdft.Pool
module Vectors = Mf_testgen.Vectors
module Dp = Mf_util.Domain_pool

let pairs = [ ("ivd_chip", "ivd"); ("ra30_chip", "pid"); ("mrna_chip", "cpa") ]

(* Every cold request is `dft_tool codesign --chip C --assay A` at the CLI
   defaults (PSO seed 42, quick budgets), so every run measures the same
   requests and checks them against these result digests, committed in
   BENCH_serve.json.  The workload draws nothing from the benchmark
   seed: identical passes already vary by ±10% on the reference box. *)
let pso_seed = 42

let pinned =
  [
    ("ivd_chip", "465a7d5bc8a521b6ccf4d6e839ade4c9");
    ("ra30_chip", "49f6a8c19ed75a3374b896a12a39ba95");
    ("mrna_chip", "4b6385d7bdca71e7af048349718f3adb");
  ]

type outcome = {
  request_s : float;  (** pool build + codesign + verify *)
  pool_s : float;
  codesign_s : float;
  result : Codesign.result option;
}

(* Counters summed over one pass's requests. *)
type totals = {
  mutable pool_nodes : int;
  mutable pool_rejects : int;
  mutable pool_entries : int;
  mutable evaluations : int;
  mutable sched : Mf_sched.Scheduler.Stats.snapshot list;
  mutable verify_errors : int;
  mutable verify_warnings : int;
  repairs : repairs;
}

let new_totals () =
  {
    pool_nodes = 0;
    pool_rejects = 0;
    pool_entries = 0;
    evaluations = 0;
    sched = [];
    verify_errors = 0;
    verify_warnings = 0;
    repairs = new_repairs ();
  }

let digest = Mf_serve.Fingerprint.result_digest

(* One cold request: the calls [Codesign.run] makes without a pool, in the
   same order and on the same rng stream. *)
let request ~domains ~totals ?parent ~id (name, chip, app) =
  let params =
    { Codesign.quick_params with Codesign.seed = pso_seed; jobs = Dp.jobs domains }
  in
  let (pool_s, codesign_s, result), request_s =
    Trace.span ?parent ~request:id "request" @@ fun rid ->
    Report.attempt ();
    let nodes0 = ilp_nodes () in
    let pool, pool_s =
      Trace.span ~parent:rid ~request:id "pool.build" @@ fun _ ->
      Pool.build ~size:params.Codesign.pool_size ~node_limit:params.Codesign.ilp_node_limit
        ~domains
        ~rng:(Rng.split (Rng.create ~seed:pso_seed))
        chip
    in
    totals.pool_nodes <- totals.pool_nodes + (ilp_nodes () - nodes0);
    match pool with
    | Error f ->
      Report.failure "%s: pool build: %s" name (Mf_util.Fail.to_string f);
      (pool_s, 0., None)
    | Ok pool -> (
      totals.pool_rejects <- totals.pool_rejects + List.length (Pool.rejects pool);
      totals.pool_entries <- totals.pool_entries + Pool.size pool;
      Report.attempt ();
      let (r, sched), codesign_s =
        Trace.span ~parent:rid ~request:id "codesign.run" @@ fun _ ->
        sched_delta (fun () -> Codesign.run ~params ~pool ~domains chip app)
      in
      totals.sched <- sched :: totals.sched;
      match r with
      | Error f ->
        Report.failure "%s: codesign: %s" name (Mf_util.Fail.to_string f);
        (pool_s, codesign_s, None)
      | Ok r ->
        totals.evaluations <- totals.evaluations + r.Codesign.evaluations;
        if r.Codesign.exec_final = None then Report.failure "%s: no schedule on the DFT chip" name;
        Report.attempt ();
        let diags, _ = Trace.span ~parent:rid ~request:id "verify" (fun _ -> Codesign.verify r) in
        let errors, warnings = Mf_util.Diag.count diags in
        totals.verify_errors <- totals.verify_errors + errors;
        totals.verify_warnings <- totals.verify_warnings + warnings;
        Report.check (errors = 0) "%s: verify reports %d error(s)" name errors;
        Report.check
          (Vectors.is_valid r.Codesign.shared r.Codesign.suite)
          "%s: suite does not cover every fault of the shared chip" name;
        let pinned = List.assoc name pinned in
        Report.check (digest r = pinned) "%s: result digest %s, dft_tool codesign gives %s" name
          (digest r) pinned;
        (pool_s, codesign_s, Some r))
  in
  Printf.printf "  %-12s %9.3f s (pool %.3f s, codesign %.3f s)\n%!" name request_s pool_s
    codesign_s;
  { request_s; pool_s; codesign_s; result }

let pass ~domains ~inputs ~totals pid =
  List.mapi
    (fun i input ->
      let id = i + 1 in
      let o = request ~domains ~totals ~parent:pid ~id input in
      Option.iter
        (fun r ->
          repair_batch ~acc:totals.repairs
            ~sharing:(r.Codesign.augmented, r.Codesign.sharing)
            ~parent:pid ~id r.Codesign.shared r.Codesign.suite)
        o.result;
      o)
    inputs

let quality outcomes =
  let results = List.filter_map (fun o -> o.result) outcomes in
  Report.count "vectors" (sum_ints (fun r -> r.Codesign.n_vectors_dft) results);
  Report.count "dft_valves" (sum_ints (fun r -> r.Codesign.n_dft_valves) results);
  Report.metric ~n:(List.length outcomes) "exec_ratio"
    (Stats.exec_ratio
       (List.map
          (fun o ->
            match o.result with
            | Some r -> (r.Codesign.exec_original, r.Codesign.exec_final)
            | None -> (None, None))
          outcomes))

(* Unit costs of the fitness function's two halves, on each result. *)
let probes ~inputs outcomes =
  let valid, makespan =
    List.fold_left2
      (fun (valid, makespan) (_, _, app) o ->
        match o.result with
        | None -> (valid, makespan)
        | Some r ->
          let shared = r.Codesign.shared in
          ( probe_ms ~reps:5 (fun () -> Vectors.is_valid shared r.Codesign.suite) :: valid,
            probe_ms ~reps:5 (fun () -> Mf_sched.Scheduler.makespan shared app) :: makespan ))
      ([], []) inputs outcomes
  in
  if valid <> [] then begin
    Report.metric ~n:(List.length valid) "faults.is_valid_ms" (Stats.median valid);
    Report.metric ~n:(List.length makespan) "sched.makespan_ms" (Stats.median makespan)
  end

(* Per-layer figures of the traced pass. *)
let layer_metrics totals =
  let selfs = Trace.self_times (Trace.spans ()) in
  let self = Trace.self_ms selfs in
  let pool_ms, pool_n = self "pool.build" in
  Report.metric ~n:pool_n "pool.build_ms" pool_ms;
  Report.count "pool.nodes" totals.pool_nodes;
  Report.count "pool.rejects" totals.pool_rejects;
  Report.count "pool.entries" totals.pool_entries;
  let pso_ms, pso_n = self "codesign.run" in
  Report.metric ~n:pso_n "codesign.pso_ms" pso_ms;
  Report.count "codesign.evaluations" totals.evaluations;
  Report.metric ~n:totals.evaluations "codesign.ms_per_eval"
    (pso_ms /. float_of_int (max 1 totals.evaluations));
  let open Mf_sched.Scheduler.Stats in
  Report.count "sched.runs" (sum_ints (fun s -> s.runs) totals.sched);
  Report.count "sched.steps" (sum_ints (fun s -> s.steps) totals.sched);
  Report.count "sched.routes" (sum_ints (fun s -> s.routes) totals.sched);
  Report.count "sched.cutoffs" (sum_ints (fun s -> s.cutoffs) totals.sched);
  let verify_ms, verify_n = self "verify" in
  Report.metric ~n:verify_n "verify.ms" verify_ms;
  Report.count "verify.errors" totals.verify_errors;
  Report.count "verify.warnings" totals.verify_warnings;
  repair_layer_metrics selfs totals.repairs

(* Parallel efficiency: the first pair again on one domain (its result
   checked against the same pinned digest), against its figures from the
   untraced pass at [jobs] domains. *)
let speedup ~inputs (at_jobs : outcome) =
  Dp.with_pool ~jobs:1 @@ fun domains ->
  let serial = request ~domains ~totals:(new_totals ()) ~id:0 (List.hd inputs) in
  Report.metric "pool.speedup" (serial.pool_s /. at_jobs.pool_s);
  Report.metric "codesign.speedup" (serial.codesign_s /. at_jobs.codesign_s)

let load (chip, assay) =
  match (Mf_chips.Benchmarks.by_name chip, Mf_bioassay.Assays.by_name assay) with
  | Some c, Some a -> (chip, c, a)
  | _ -> failwith ("unknown benchmark pair " ^ chip ^ "/" ^ assay)

let run_passes ~seconds ~trace domains inputs =
  let totals = new_totals () in
  let outcomes = ref [] in
  let walls =
    timed_passes
      ~seconds:(if trace then 0. else seconds)
      (fun pid -> outcomes := pass ~domains ~inputs ~totals pid @ !outcomes)
  in
  let outcomes = !outcomes in
  let last_pass = List.filteri (fun i _ -> i < List.length pairs) outcomes in
  Report.metric ~n:(List.length walls) "wall_s" (Stats.median walls);
  Report.metric ~n:(List.length outcomes) "cold_s"
    (Stats.mean (List.map (fun o -> o.request_s) outcomes));
  warm_metrics totals.repairs;
  quality last_pass;
  probes ~inputs last_pass;
  if trace then begin
    let traced = new_totals () in
    Trace.enabled := true;
    let (), wall = Trace.span ~request:0 "pass" (fun pid -> ignore (pass ~domains ~inputs ~totals:traced pid)) in
    Trace.enabled := false;
    layer_metrics traced;
    record_overhead ~untraced:(List.hd walls) ~traced:wall;
    speedup ~inputs (List.hd last_pass)
  end

let run ~seed:_ ~seconds ~trace =
  let release (d, _) = Dp.shutdown d and make () = (Dp.create ~jobs, List.map load pairs) in
  let (domains, inputs), before = setup ~release make in
  Fun.protect
    ~finally:(fun () -> Dp.shutdown domains)
    (fun () -> run_passes ~seconds ~trace domains inputs);
  record_setup ~release make before
