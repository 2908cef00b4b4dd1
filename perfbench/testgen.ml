(* testgen: `dft_tool testgen` as library calls — path ILP, cuts, suite
   repair if needed, fault-simulation validation — on the three paper
   chips and seeded ring/12, fpva/6 and storage/10, then single-fault
   repairs of each suite.  The path ILP does nearly all the work; PSO and
   the scheduler do none. *)

open Common
module Pathgen = Mf_testgen.Pathgen
module Vectors = Mf_testgen.Vectors
module Dp = Mf_util.Domain_pool

let node_limit = 1200
let paper_chips = [ "ivd_chip"; "ra30_chip"; "mrna_chip" ]
let families = [ ("ring", 12); ("fpva", 6); ("storage", 10) ]

(* The chip set: family chips come from [seed] the way `dft_tool gen`
   derives them. *)
let chips ~seed =
  List.map (fun n -> Option.get (Mf_chips.Benchmarks.by_name n)) paper_chips
  @ List.map
      (fun (family, size) ->
        let f = Option.get (Mf_chips.Families.by_name family) in
        f.Mf_chips.Families.generate_size ~size (Rng.create ~seed))
      families

type outcome = {
  request_s : float;
  config : Pathgen.config option;
  suite : (Mf_arch.Chip.t * Vectors.t) option;  (** augmented chip and its suite *)
}

let request ~domains ?parent ~id chip =
  let name = Mf_arch.Chip.name chip in
  let (config, suite), request_s =
    Trace.span ?parent ~request:id "request" @@ fun rid ->
    let span name f = fst (Trace.span ~parent:rid ~request:id name (fun _ -> f ())) in
    Report.attempt ();
    match span "pathgen" (fun () -> Pathgen.generate ~node_limit ~pool:domains chip) with
    | Error f ->
      Report.failure "%s: pathgen: %s" name (Mf_util.Fail.to_string f);
      (None, None)
    | Ok config ->
      let aug = Pathgen.apply chip config in
      let cuts =
        span "cutgen" (fun () ->
            Mf_testgen.Cutgen.generate aug ~source:config.Pathgen.src_port
              ~meter:config.Pathgen.dst_port)
      in
      let suite =
        span "suite_repair" (fun () ->
            let suite = Vectors.of_config config cuts in
            if Vectors.is_valid aug suite then suite else Mf_testgen.Repair.run aug suite)
      in
      let report = span "faults.validate" (fun () -> Vectors.validate aug suite) in
      if not (Mf_faults.Coverage.complete report) then begin
        Report.failure "%s: suite leaves faults undetected" name;
        (Some config, None)
      end
      else (Some config, Some (aug, suite))
  in
  Printf.printf "  %-12s %9.3f s\n%!" name request_s;
  { request_s; config; suite }

let pass ~domains ~chips ~repairs pid =
  List.mapi
    (fun i chip ->
      let id = i + 1 in
      let o = request ~domains ~parent:pid ~id chip in
      (* the paper chips' suites take the warm requests: the family chips
         change with the seed, and with them the repair costs *)
      if i < List.length paper_chips then
        Option.iter (fun (aug, suite) -> repair_batch ~acc:repairs ~parent:pid ~id aug suite) o.suite;
      o)
    chips

let configs outcomes = List.filter_map (fun o -> o.config) outcomes

let quality outcomes =
  Report.count "vectors"
    (sum_ints (fun o -> match o.suite with Some (_, s) -> Vectors.count s | None -> 0) outcomes);
  Report.count "dft_valves"
    (sum_ints (fun c -> List.length c.Pathgen.added_edges) (configs outcomes))

let layer_metrics ~repairs outcomes =
  let selfs = Trace.self_times (Trace.spans ()) in
  let self = Trace.self_ms selfs in
  let cs = configs outcomes in
  let solver f = sum_ints (fun c -> f c.Pathgen.solver) cs in
  let pathgen_ms, n = self "pathgen" in
  let nodes = sum_ints (fun c -> c.Pathgen.ilp_nodes) cs in
  Report.metric ~n "pathgen.ms" pathgen_ms;
  Report.count "pathgen.nodes" nodes;
  Report.metric ~n:nodes "pathgen.ms_per_node" (pathgen_ms /. float_of_int (max 1 nodes));
  Report.count "pathgen.pivots"
    (solver (fun s -> s.Mf_ilp.Ilp.rs_primal_pivots + s.Mf_ilp.Ilp.rs_dual_pivots));
  let eligible = solver (fun s -> s.Mf_ilp.Ilp.rs_warm_eligible) in
  Report.metric ~n:eligible "pathgen.warm_ratio"
    (float_of_int (solver (fun s -> s.Mf_ilp.Ilp.rs_warm_taken)) /. float_of_int (max 1 eligible));
  Report.count "pathgen.cache_hits" (solver (fun s -> s.Mf_ilp.Ilp.rs_cache_hits));
  Report.count "pathgen.loop_cuts" (sum_ints (fun c -> c.Pathgen.loop_cuts) cs);
  Report.count "pathgen.degraded" (List.length (List.filter (fun c -> c.Pathgen.degraded) cs));
  List.iter
    (fun name ->
      let ms, n = self name in
      Report.metric ~n (name ^ (if name = "faults.validate" then "_ms" else ".ms")) ms)
    [ "cutgen"; "suite_repair"; "faults.validate" ];
  repair_layer_metrics selfs repairs

let run_passes ~seconds ~trace domains chips =
  let repairs = new_repairs () in
  let outcomes = ref [] in
  let walls =
    timed_passes
      ~seconds:(if trace then 0. else seconds)
      (fun pid -> outcomes := pass ~domains ~chips ~repairs pid @ !outcomes)
  in
  let outcomes = !outcomes in
  Report.metric ~n:(List.length walls) "wall_s" (Stats.median walls);
  Report.metric ~n:(List.length outcomes) "cold_s"
    (Stats.mean (List.map (fun o -> o.request_s) outcomes));
  warm_metrics repairs;
  quality (List.filteri (fun i _ -> i < List.length chips) outcomes);
  if trace then begin
    let repairs = new_repairs () in
    Trace.enabled := true;
    let traced, wall = Trace.span ~request:0 "pass" (pass ~domains ~chips ~repairs) in
    Trace.enabled := false;
    layer_metrics ~repairs traced;
    record_overhead ~untraced:(List.hd walls) ~traced:wall
  end

let run ~seed ~seconds ~trace =
  let release (d, _) = Dp.shutdown d and make () = (Dp.create ~jobs, chips ~seed) in
  let (domains, chips), before = setup ~release make in
  Fun.protect
    ~finally:(fun () -> Dp.shutdown domains)
    (fun () -> run_passes ~seconds ~trace domains chips);
  record_setup ~release make before
