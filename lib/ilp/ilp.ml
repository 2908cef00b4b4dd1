module Lp = Mf_lp.Lp
module Heap = Mf_util.Heap
module Domain_pool = Mf_util.Domain_pool

type var = Lp.var

type relation = Lp.relation = Le | Ge | Eq

type run_stats = {
  rs_nodes : int;
  rs_batches : int;
  rs_warm_eligible : int;
  rs_warm_taken : int;
  rs_fallbacks : int;
  rs_cache_hits : int;
  rs_primal_pivots : int;
  rs_dual_pivots : int;
}

let zero_stats =
  {
    rs_nodes = 0;
    rs_batches = 0;
    rs_warm_eligible = 0;
    rs_warm_taken = 0;
    rs_fallbacks = 0;
    rs_cache_hits = 0;
    rs_primal_pivots = 0;
    rs_dual_pivots = 0;
  }

let add_stats a b =
  {
    rs_nodes = a.rs_nodes + b.rs_nodes;
    rs_batches = a.rs_batches + b.rs_batches;
    rs_warm_eligible = a.rs_warm_eligible + b.rs_warm_eligible;
    rs_warm_taken = a.rs_warm_taken + b.rs_warm_taken;
    rs_fallbacks = a.rs_fallbacks + b.rs_fallbacks;
    rs_cache_hits = a.rs_cache_hits + b.rs_cache_hits;
    rs_primal_pivots = a.rs_primal_pivots + b.rs_primal_pivots;
    rs_dual_pivots = a.rs_dual_pivots + b.rs_dual_pivots;
  }

type t = {
  lp : Lp.t;
  mutable binaries : var list; (* reversed *)
  mutable bin_objs : float list; (* reversed, parallel to [binaries] *)
  mutable cont_obj : bool; (* a continuous variable carries objective weight *)
  mutable last_stats : run_stats;
}

type solution = { objective : float; values : float array }

type outcome =
  | Optimal of solution
  | Feasible of solution
  | Infeasible
  | Node_limit
  | Failed of Mf_util.Fail.t

type lazy_cut = (float * var) list * relation * float

(* Process-wide branch-and-bound telemetry, mirroring {!Mf_lp.Simplex.Stats}.
   Under parallel solves every counter is still bumped from the coordinating
   domain only — workers hand their per-relaxation effort back as data and
   the coordinator folds it in batch order — so totals are deterministic for
   any job count.  [warm_eligible] counts non-root nodes that arrived with a
   usable warm basis; [warm_taken] those whose relaxation the dual simplex
   actually re-optimised from it. *)
module Stats = struct
  let nodes = Atomic.make 0
  let warm_eligible = Atomic.make 0
  let warm_taken = Atomic.make 0

  let all = [ nodes; warm_eligible; warm_taken ]
  let reset () = List.iter (fun a -> Atomic.set a 0) all
end

let create () =
  {
    lp = Lp.create ();
    binaries = [];
    bin_objs = [];
    cont_obj = false;
    last_stats = zero_stats;
  }

let nodes_explored t = t.last_stats.rs_nodes
let last_stats t = t.last_stats

let add_binary ?(obj = 0.) t =
  let v = Lp.add_var ~lower:0. ~upper:1. ~obj t.lp in
  t.binaries <- v :: t.binaries;
  t.bin_objs <- obj :: t.bin_objs;
  v

let add_continuous ?(lower = 0.) ?(upper = infinity) ?(obj = 0.) t =
  if obj <> 0. then t.cont_obj <- true;
  Lp.add_var ~lower ~upper ~obj t.lp

let n_vars t = Lp.n_vars t.lp

let add_row t terms rel rhs = Lp.add_row t.lp terms rel rhs

let int_tol = 1e-6

(* A node is a set of branching decisions on binary variables, plus the
   optimal basis of the relaxation that spawned it: after the one bound
   change of a branching step the parent basis stays dual-feasible, so the
   child's relaxation re-optimises warmly with the dual simplex instead of
   running two cold phases.  Best-first on the parent LP bound, with a
   small depth bonus so ties resolve as a dive (reaches integral incumbents
   quickly); the heap's stable sequence key breaks remaining ties in push
   order, which makes the pop sequence a pure function of the search
   trajectory — the determinism law the parallel batches rely on. *)
type node = { fixings : (var * float) list; bound : float; parent : Lp.basis option }

let node_priority bound depth = bound -. (1e-7 *. float_of_int depth)

(* Chaos [ilp-worker] strikes surface as this exception inside a worker
   task; the batch drains fully before it is rethrown as one typed
   failure. *)
exception Worker_strike

(* Up to [bmax] open nodes are popped per round and their relaxations
   solved concurrently; everything else — pruning, incumbent updates,
   branching, cut installation — happens sequentially on the coordinator
   in batch order.  The batch size depends only on the heap state, never
   on the job count, so the search trajectory is jobs-invariant. *)
let bmax = 16

let solve ?(node_limit = 100_000) ?budget ?(lazy_cuts = fun _ -> [])
    ?(branch_priority = fun _ -> 0) ?(upper_bound = infinity) ?(warm = true) ?pool t =
  (* Fault injection: truncate the node budget so callers exercise their
     [Node_limit]/[Feasible] handling on real models. *)
  let node_limit =
    if Mf_util.Chaos.strike Ilp_nodes then min node_limit 2 else node_limit
  in
  let binaries = Array.of_list (List.rev t.binaries) in
  let bin_objs = Array.of_list (List.rev t.bin_objs) in
  let stats = ref zero_stats in
  let finish outcome =
    t.last_stats <- !stats;
    Mf_util.Prof.add_count "ilp.solves" 1;
    Mf_util.Prof.add_count "ilp.nodes" !stats.rs_nodes;
    Mf_util.Prof.add_count "ilp.batches" !stats.rs_batches;
    outcome
  in
  let incumbent = ref None in
  let incumbent_obj = ref upper_bound in
  let heap : node Heap.t = Heap.create () in
  let next_seq = ref 0 in
  let push_node node =
    Heap.push_seq heap (node_priority node.bound (List.length node.fixings)) !next_seq node;
    incr next_seq
  in
  let truncated = ref false in
  (* set when a relaxation came back without a proven bound (budget ran
     out mid-solve, or numerical distress): the search stays sound for
     feasibility but can no longer certify optimality *)
  let weakened = ref false in
  let aborted = ref None in
  let abort f = if !aborted = None then aborted := Some f in
  let most_fractional values =
    let best = ref (-1) in
    let best_prio = ref max_int in
    let best_frac = ref int_tol in
    Array.iter
      (fun v ->
        let x = values.(v) in
        let frac = abs_float (x -. Float.round x) in
        if frac > int_tol then begin
          let prio = branch_priority v in
          if prio < !best_prio || (prio = !best_prio && frac > !best_frac) then begin
            best_prio := prio;
            best_frac := frac;
            best := v
          end
        end)
      binaries;
    !best
  in
  let fold_info (info : Lp.info) =
    stats :=
      {
        !stats with
        rs_primal_pivots = !stats.rs_primal_pivots + info.Lp.primal_pivots;
        rs_dual_pivots = !stats.rs_dual_pivots + info.Lp.dual_pivots;
        rs_fallbacks = (!stats.rs_fallbacks + if info.Lp.fell_back then 1 else 0);
      };
    if info.Lp.warm then begin
      Atomic.incr Stats.warm_taken;
      stats := { !stats with rs_warm_taken = !stats.rs_warm_taken + 1 }
    end
  in
  (* one relaxation, executed on whichever domain picks the task up; pure
     in the (model, fixings, seed basis) inputs *)
  let relax_task fixings seed () =
    if Mf_util.Chaos.strike Ilp_worker then raise Worker_strike;
    Lp.solve_b ?budget ~fix:fixings ?warm:seed t.lp
  in
  push_node { fixings = []; bound = neg_infinity; parent = None };
  (* ---- batched best-first search ---- *)
  let jobs = match pool with None -> 1 | Some p -> Domain_pool.jobs p in
  let rec loop () =
    if !aborted <> None then ()
    else if !stats.rs_nodes >= node_limit || Mf_util.Budget.over budget then truncated := true
    else if Heap.is_empty heap then ()
    else begin
      let cap = min bmax (node_limit - !stats.rs_nodes) in
      let picked = ref [] in
      let n_picked = ref 0 in
      while !n_picked < cap && not (Heap.is_empty heap) do
        match Heap.pop_seq heap with
        | None -> ()
        | Some (_, _, node) ->
          if node.bound < !incumbent_obj -. 1e-9 then begin
            incr n_picked;
            picked := node :: !picked
          end
      done;
      let batch = Array.of_list (List.rev !picked) in
      if Array.length batch = 0 then loop ()
      else begin
        (* every counted node is exactly one relaxation solve; warm-seed
           selection stays on the coordinator, in batch order *)
        let seeds =
          Array.map
            (fun node ->
              let seed = if warm then node.parent else None in
              if node.fixings <> [] && seed <> None then begin
                Atomic.incr Stats.warm_eligible;
                stats := { !stats with rs_warm_eligible = !stats.rs_warm_eligible + 1 }
              end;
              seed)
            batch
        in
        ignore (Atomic.fetch_and_add Stats.nodes (Array.length batch));
        stats :=
          {
            !stats with
            rs_nodes = !stats.rs_nodes + Array.length batch;
            rs_batches = !stats.rs_batches + 1;
          };
        (* fan the relaxations out; harvest in batch order so a worker
           failure is drained, not raced *)
        let solved =
          match pool with
          | Some p when jobs > 1 ->
            Lp.prepare t.lp;
            Array.mapi
              (fun i node -> Domain_pool.submit p (relax_task node.fixings seeds.(i)))
              batch
            |> Array.map (fun fut ->
                   match Domain_pool.await p fut with r -> Ok r | exception e -> Error e)
          | _ ->
            Array.mapi
              (fun i node ->
                match relax_task node.fixings seeds.(i) () with
                | r -> Ok r
                | exception e -> Error e)
              batch
        in
        (* sequential reduction, strictly in batch order *)
        let cuts_installed = ref false in
        Array.iteri
          (fun i node ->
            if !aborted = None then
              if !cuts_installed then begin
                (* the model grew under this in-flight relaxation: fold the
                   effort spent (the batch is jobs-invariant, so the totals
                   stay deterministic), discard the stale result and
                   re-queue the node under the same priority law *)
                (match solved.(i) with Ok (_, _, info) -> fold_info info | Error _ -> ());
                push_node node
              end
              else
                match solved.(i) with
                | Error e ->
                  abort
                    (Mf_util.Fail.v ~nodes:!stats.rs_nodes Mf_util.Fail.Ilp
                       (Printf.sprintf "relaxation worker failed: %s"
                          (match e with
                           | Worker_strike -> "chaos ilp-worker strike"
                           | e -> Printexc.to_string e)))
                | Ok (rel, basis, info) -> (
                  fold_info info;
                  match rel with
                  | Lp.Infeasible -> ()
                  | Lp.Iter_limit | Lp.Numerical _ ->
                    (* distress in one relaxation prunes that subtree rather
                       than aborting the whole search; without a proven
                       bound the prune is heuristic, so optimality can no
                       longer be certified *)
                    weakened := true
                  | Lp.Unbounded ->
                    (* an unbounded relaxation is a model defect, not a
                       resource outcome: surface it as a typed failure so
                       callers can degrade instead of crashing *)
                    abort
                      (Mf_util.Fail.v ~nodes:!stats.rs_nodes Mf_util.Fail.Ilp
                         "LP relaxation unbounded")
                  | Lp.Optimal { objective; values } | Lp.Feasible { objective; values } ->
                    (match rel with Lp.Feasible _ -> weakened := true | _ -> ());
                    if objective >= !incumbent_obj -. 1e-9 then ()
                    else begin
                      let branch_var = most_fractional values in
                      if branch_var < 0 then begin
                        (* integral candidate: snap tiny residues and make the
                           reported objective a function of the snapped
                           solution rather than of the LP's float path to it
                           — exact when the objective lives entirely on the
                           binaries (integral data sums exactly), a delta
                           correction otherwise *)
                        let delta = ref 0. in
                        Array.iteri
                          (fun i v ->
                            let x = values.(v) in
                            let r = Float.round x in
                            if r <> x then begin
                              values.(v) <- r;
                              delta := !delta +. (bin_objs.(i) *. (r -. x))
                            end)
                          binaries;
                        let objective =
                          if t.cont_obj then objective +. !delta
                          else begin
                            let o = ref 0. in
                            Array.iteri
                              (fun i v -> o := !o +. (bin_objs.(i) *. values.(v)))
                              binaries;
                            !o
                          end
                        in
                        let candidate = { objective; values } in
                        match lazy_cuts candidate with
                        | [] ->
                          incumbent := Some candidate;
                          incumbent_obj := objective
                        | cs ->
                          List.iter (fun (terms, rel, rhs) -> add_row t terms rel rhs) cs;
                          (* re-explore this subproblem under the new cuts,
                             seeded by the basis just proved optimal for it
                             (the cut rows only extend it); the rest of the
                             batch re-queues unchanged *)
                          cuts_installed := true;
                          push_node
                            {
                              node with
                              bound = objective;
                              parent = (match basis with Some _ -> basis | None -> node.parent);
                            }
                      end
                      else begin
                        let child x =
                          {
                            fixings = (branch_var, x) :: node.fixings;
                            bound = objective;
                            parent = basis;
                          }
                        in
                        (* explore the branch matching the fractional value
                           first: pushed first, so the stable sequence key
                           pops it first among equal bounds *)
                        let first, second =
                          if values.(branch_var) >= 0.5 then (child 1., child 0.)
                          else (child 0., child 1.)
                        in
                        push_node first;
                        push_node second
                      end
                    end))
          batch;
        loop ()
      end
    end
  in
  loop ();
  match !aborted with
  | Some f -> finish (Failed f)
  | None -> (
    match !incumbent with
    | Some sol -> if !truncated || !weakened then finish (Feasible sol) else finish (Optimal sol)
    | None -> if !truncated || !weakened then finish Node_limit else finish Infeasible)
