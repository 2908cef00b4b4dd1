(* Sparse revised bounded-variable simplex with a product-form (eta-file)
   basis inverse.  See simplex.mli for the contract; the notes here cover
   the representation.

   The basis inverse is held as B^-1 = E_k · … · E_1, each eta the
   elementary column transform of one pivot (or one factorisation step).
   FTRAN applies etas in creation order to compute B^-1 v; BTRAN applies
   them transposed in reverse order to compute v B^-1.  Every
   [refactor_interval] fresh etas the file is rebuilt from the current
   basis by deterministic Gaussian elimination, bounding both drift and
   the O(#etas) cost of each FTRAN/BTRAN.

   Determinism: pricing and both ratio tests break ties on the smallest
   column/basis index, and the refactorisation orders columns by
   (nnz, index) and picks the largest-magnitude pivot row with ties to the
   smallest row, so a solve is a pure function of its inputs. *)

type result =
  | Optimal of { objective : float; values : float array }
  | Feasible of { objective : float; values : float array }
  | Iter_limit
  | Infeasible
  | Unbounded

(* Process-wide solver telemetry.  Atomic so worker domains can bump them
   during parallel pool builds; sums are schedule-independent, so totals are
   deterministic for any job count.  Read/reset by [bench -- perf] and the
   MFDFT_PROF report — never consulted by the solver itself. *)
module Stats = struct
  let primal_pivots = Atomic.make 0
  let dual_pivots = Atomic.make 0
  let phase1_solves = Atomic.make 0
  let refactors = Atomic.make 0

  let all = [ primal_pivots; dual_pivots; phase1_solves; refactors ]
  let reset () = List.iter (fun a -> Atomic.set a 0) all
  let pivots () = Atomic.get primal_pivots + Atomic.get dual_pivots
end

let eps_cost = 1e-7 (* reduced-cost optimality tolerance *)
let eps_pivot = 1e-9 (* smallest acceptable pivot element *)
let eps_feas = 1e-7 (* primal feasibility tolerance *)
let eps_singular = 1e-10 (* factorisation pivot threshold *)
let refactor_interval = 64 (* fresh etas between refactorisations *)

type col = { idx : int array; v : float array }
type problem = { m : int; n : int; cols : col array; b : float array }
type status = Basic | At_lower | At_upper
type basis = { basic : int array; vstat : status array }

type info = {
  primal_pivots : int;
  dual_pivots : int;
  warm : bool;
  fell_back : bool;
}

(* Raised on a pivot the eta representation cannot absorb; converted to
   [Failure] on the cold path, to a silent cold fallback on the warm path. *)
exception Singular of string

type eta = { er : int; ei : int array; ev : float array }

(* Working state for one simplex run.  [n] counts every column visible to
   this run — the caller's columns plus, on the cold path, one artificial
   per row appended at indices >= problem.n. *)
type core = {
  m : int;
  n : int;
  cols : col array;
  b : float array;
  lower : float array;
  upper : float array;
  basic : int array; (* row -> column *)
  vstat : status array; (* column -> status *)
  xb : float array; (* basic values, by row *)
  mutable etas : eta array; (* 0 .. n_etas-1 valid *)
  mutable n_etas : int;
  mutable fresh : int; (* etas pushed since the last factorisation *)
}

let nonbasic_value core j =
  match core.vstat.(j) with
  | At_lower -> core.lower.(j)
  | At_upper -> core.upper.(j)
  | Basic -> invalid_arg "nonbasic_value of basic variable"

(* ------------------------------------------------------------------ *)
(* eta file *)

let push_eta core e =
  if core.n_etas = Array.length core.etas then begin
    let bigger = Array.make (max 32 (2 * core.n_etas)) e in
    Array.blit core.etas 0 bigger 0 core.n_etas;
    core.etas <- bigger
  end;
  core.etas.(core.n_etas) <- e;
  core.n_etas <- core.n_etas + 1;
  core.fresh <- core.fresh + 1

(* Eta absorbing pivot row [r] of the FTRANned column [w]: the stored
   column is eta_r = 1/w_r, eta_i = -w_i/w_r, entries in row order. *)
let eta_of (w : float array) r =
  let m = Array.length w in
  let wr = w.(r) in
  let nnz = ref 1 in
  for i = 0 to m - 1 do
    if i <> r && w.(i) <> 0. then incr nnz
  done;
  let ei = Array.make !nnz 0 in
  let ev = Array.make !nnz 0. in
  let p = ref 0 in
  for i = 0 to m - 1 do
    if i = r then begin
      ei.(!p) <- r;
      ev.(!p) <- 1. /. wr;
      incr p
    end
    else if w.(i) <> 0. then begin
      ei.(!p) <- i;
      ev.(!p) <- -.w.(i) /. wr;
      incr p
    end
  done;
  { er = r; ei; ev }

(* v <- B^-1 v *)
let ftran core v =
  for k = 0 to core.n_etas - 1 do
    let e = core.etas.(k) in
    let t = v.(e.er) in
    if t <> 0. then begin
      v.(e.er) <- 0.;
      let ei = e.ei and ev = e.ev in
      for p = 0 to Array.length ei - 1 do
        v.(ei.(p)) <- v.(ei.(p)) +. (ev.(p) *. t)
      done
    end
  done

(* y <- y B^-1 (row vector) *)
let btran core y =
  for k = core.n_etas - 1 downto 0 do
    let e = core.etas.(k) in
    let ei = e.ei and ev = e.ev in
    let acc = ref 0. in
    for p = 0 to Array.length ei - 1 do
      acc := !acc +. (ev.(p) *. y.(ei.(p)))
    done;
    y.(e.er) <- !acc
  done

let load_col core j w =
  Array.fill w 0 core.m 0.;
  let c = core.cols.(j) in
  for p = 0 to Array.length c.idx - 1 do
    w.(c.idx.(p)) <- c.v.(p)
  done

(* rho · A_j for a dense row vector rho *)
let row_dot core rho j =
  let c = core.cols.(j) in
  let acc = ref 0. in
  for p = 0 to Array.length c.idx - 1 do
    acc := !acc +. (rho.(c.idx.(p)) *. c.v.(p))
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* factorisation and derived quantities *)

(* A binary min-heap of ints in [heap.(0 .. !n-1)]. *)
let heap_push (heap : int array) n x =
  let i = ref !n in
  incr n;
  while !i > 0 && heap.((!i - 1) / 2) > x do
    heap.(!i) <- heap.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  heap.(!i) <- x

let heap_pop (heap : int array) n =
  let top = heap.(0) in
  decr n;
  let x = heap.(!n) in
  let i = ref 0 in
  let sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= !n then sifting := false
    else begin
      let c = if l + 1 < !n && heap.(l + 1) < heap.(l) then l + 1 else l in
      if heap.(c) < x then begin
        heap.(!i) <- heap.(c);
        i := c
      end
      else sifting := false
    end
  done;
  heap.(!i) <- x;
  top

(* Sort [a.(0 .. n-1)] ascending.  Nonzero patterns are short, so the
   common case is an insertion sort in place, without allocation. *)
let sort_prefix (a : int array) n =
  if n > 32 then begin
    let sorted = Array.sub a 0 n in
    Array.sort Int.compare sorted;
    Array.blit sorted 0 a 0 n
  end
  else
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* The basic columns in (nnz, index) order, in O(n): a counting sort on
   nnz over the columns taken in index order.  Basic columns are distinct
   (see [basis_shape_ok]). *)
let factor_order core =
  let nnz j = Array.length core.cols.(j).idx in
  let is_basic = Array.make core.n false in
  let max_nnz = Array.fold_left (fun acc j -> max acc (nnz j)) 0 core.basic in
  let start = Array.make (max_nnz + 2) 0 in
  Array.iter
    (fun j ->
      is_basic.(j) <- true;
      start.(nnz j + 1) <- start.(nnz j + 1) + 1)
    core.basic;
  for d = 1 to max_nnz + 1 do
    start.(d) <- start.(d) + start.(d - 1)
  done;
  let order = Array.make core.m 0 in
  for j = 0 to core.n - 1 do
    if is_basic.(j) then begin
      order.(start.(nnz j)) <- j;
      start.(nnz j) <- start.(nnz j) + 1
    end
  done;
  order

(* Rebuild the eta file from the current basis.  Columns enter in
   (nnz, index) order; each is FTRANned through the etas built so far and
   pivots on its largest-magnitude entry among still-unpivoted rows
   (strict comparison: ties go to the smallest row).  Returns false when
   the basis is numerically singular.  Row assignment may permute, so
   callers must recompute [xb] afterwards.

   The work per column is proportional to the nonzeros it touches, not to
   m: the column is loaded sparsely and the nonzero pattern of [w] is
   tracked with a mark array.  Each factorisation eta pivots on a distinct
   row, so eta [e] can only fire once its pivot row is in the pattern; a
   min-heap of such eta indices applies exactly the etas a dense FTRAN
   would fire, in creation order, with the same arithmetic per entry.  The
   pivot search and the eta build run over the pattern (sorted by row for
   the eta, whose entries [btran] sums in row order).  The result is
   bit-identical to the dense elimination. *)
let factorize core =
  Atomic.incr Stats.refactors;
  let m = core.m in
  core.n_etas <- 0;
  core.fresh <- 0;
  let order = factor_order core in
  let new_basic = Array.make m (-1) in
  let eta_at = Array.make m (-1) (* row -> the eta pivoting on it; -1 = unpivoted *) in
  let w = Array.make m 0. (* all zero between columns *) in
  let marked = Array.make m false in
  let pat = Array.make m 0 in
  let n_pat = ref 0 in
  let heap = Array.make (max 1 m) 0 (* eta indices, a binary min-heap *) in
  let n_heap = ref 0 in
  (* row [i] joins the pattern once etas below [first] have gone by: only
     a later eta on it can still fire *)
  let mark i first =
    if not marked.(i) then begin
      marked.(i) <- true;
      pat.(!n_pat) <- i;
      incr n_pat;
      if eta_at.(i) >= first then heap_push heap n_heap eta_at.(i)
    end
  in
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < m do
    let j = order.(!k) in
    let c = core.cols.(j) in
    for p = 0 to Array.length c.idx - 1 do
      w.(c.idx.(p)) <- c.v.(p);
      mark c.idx.(p) 0
    done;
    while !n_heap > 0 do
      let e = heap_pop heap n_heap in
      let eta = core.etas.(e) in
      let t = w.(eta.er) in
      if t <> 0. then begin
        w.(eta.er) <- 0.;
        let ei = eta.ei and ev = eta.ev in
        for p = 0 to Array.length ei - 1 do
          w.(ei.(p)) <- w.(ei.(p)) +. (ev.(p) *. t);
          mark ei.(p) (e + 1)
        done
      end
    done;
    let r = ref (-1) in
    let best = ref 0. in
    for q = 0 to !n_pat - 1 do
      let i = pat.(q) in
      if eta_at.(i) < 0 then begin
        let a = abs_float w.(i) in
        if a > !best || (a = !best && i < !r) then begin
          best := a;
          r := i
        end
      end
    done;
    if !best <= eps_singular then ok := false
    else begin
      let r = !r in
      let np = !n_pat in
      sort_prefix pat np;
      let kept = ref 0 in
      for q = 0 to np - 1 do
        if pat.(q) = r || w.(pat.(q)) <> 0. then incr kept
      done;
      let ei = Array.make !kept 0 in
      let ev = Array.make !kept 0. in
      let wr = w.(r) in
      let p = ref 0 in
      for q = 0 to np - 1 do
        let i = pat.(q) in
        if i = r || w.(i) <> 0. then begin
          ei.(!p) <- i;
          ev.(!p) <- (if i = r then 1. /. wr else -.w.(i) /. wr);
          incr p
        end;
        w.(i) <- 0.;
        marked.(i) <- false
      done;
      n_pat := 0;
      push_eta core { er = r; ei; ev };
      eta_at.(r) <- !k;
      new_basic.(r) <- j;
      incr k
    end
  done;
  if !ok then Array.blit new_basic 0 core.basic 0 m;
  (* the factorisation's own etas are the baseline, not drift *)
  core.fresh <- 0;
  !ok

(* xb <- B^-1 (b - A_N x_N) *)
let compute_xb core =
  let r = Array.copy core.b in
  for j = 0 to core.n - 1 do
    if core.vstat.(j) <> Basic then begin
      let x = nonbasic_value core j in
      if x <> 0. then begin
        let c = core.cols.(j) in
        for p = 0 to Array.length c.idx - 1 do
          r.(c.idx.(p)) <- r.(c.idx.(p)) -. (c.v.(p) *. x)
        done
      end
    end
  done;
  ftran core r;
  Array.blit r 0 core.xb 0 core.m

(* y <- c_B B^-1 *)
let compute_y core c y =
  for i = 0 to core.m - 1 do
    y.(i) <- c.(core.basic.(i))
  done;
  btran core y

let reduced core c y j = c.(j) -. row_dot core y j

let maybe_refactor core =
  if core.fresh >= refactor_interval then begin
    if not (factorize core) then
      raise (Singular "Simplex: singular basis at refactorisation");
    compute_xb core
  end

(* ------------------------------------------------------------------ *)
(* primal simplex *)

(* Entering column choice against current duals [y].  A nonbasic variable
   improves the objective when it is at its lower bound with negative
   reduced cost (increase it) or at its upper bound with positive reduced
   cost (decrease it).  [bland] forces smallest-index selection for
   anti-cycling. *)
let choose_entering core ~c ~y ~bland ~frozen =
  let best = ref (-1) in
  let best_score = ref eps_cost in
  (try
     for j = 0 to core.n - 1 do
       if (not (frozen j)) && core.vstat.(j) <> Basic then begin
         let improving =
           match core.vstat.(j) with
           | Basic -> 0.
           | At_lower -> -.reduced core c y j
           | At_upper ->
             (* a variable with equal bounds cannot move *)
             if core.upper.(j) -. core.lower.(j) < eps_feas then 0.
             else reduced core c y j
         in
         if improving > eps_cost then begin
           if bland then begin
             best := j;
             raise Exit
           end;
           if improving > !best_score then begin
             best_score := improving;
             best := j
           end
         end
       end
     done
   with Exit -> ());
  !best

(* One primal iteration for entering column [j] ([w] is row-length
   scratch).  Returns [`Progress] or [`Unbounded]. *)
let primal_step core j w =
  load_col core j w;
  ftran core w;
  let increasing = core.vstat.(j) = At_lower in
  (* direction of change of basic variables is -dir*t *)
  let dir i = if increasing then w.(i) else -.w.(i) in
  (* ratio test: largest step t >= 0 keeping all basic vars within bounds *)
  let limit = ref (core.upper.(j) -. core.lower.(j)) (* bound-flip limit *) in
  let leave = ref (-1) in
  let leave_at_upper = ref false in
  for i = 0 to core.m - 1 do
    let d = dir i in
    let bvar = core.basic.(i) in
    let consider t at_upper =
      let better =
        t < !limit -. 1e-12
        (* tie-break on smaller basis index to curb cycling *)
        || (t <= !limit +. 1e-12 && !leave >= 0 && bvar < core.basic.(!leave))
      in
      if better then begin
        limit := min t !limit;
        leave := i;
        leave_at_upper := at_upper
      end
    in
    if d > eps_pivot then
      (* basic variable decreases towards its lower bound *)
      consider ((core.xb.(i) -. core.lower.(bvar)) /. d) false
    else if d < -.eps_pivot && core.upper.(bvar) < infinity then
      (* basic variable increases towards its upper bound *)
      consider ((core.upper.(bvar) -. core.xb.(i)) /. -.d) true
  done;
  if !limit = infinity then `Unbounded
  else begin
    let t = max 0. !limit in
    if !leave = -1 then begin
      (* bound flip: the entering variable traverses to its other bound *)
      for i = 0 to core.m - 1 do
        core.xb.(i) <- core.xb.(i) -. (dir i *. t)
      done;
      core.vstat.(j) <- (if increasing then At_upper else At_lower);
      `Progress
    end
    else begin
      let r = !leave in
      if abs_float w.(r) < eps_pivot then
        raise (Singular "Simplex: numerically singular pivot");
      let enter_value =
        if increasing then core.lower.(j) +. t else core.upper.(j) -. t
      in
      for i = 0 to core.m - 1 do
        if i <> r then core.xb.(i) <- core.xb.(i) -. (dir i *. t)
      done;
      let old_basic = core.basic.(r) in
      core.vstat.(old_basic) <- (if !leave_at_upper then At_upper else At_lower);
      core.basic.(r) <- j;
      core.vstat.(j) <- Basic;
      core.xb.(r) <- enter_value;
      push_eta core (eta_of w r);
      maybe_refactor core;
      `Progress
    end
  end

let primal_opt core ~c ~max_iters ~budget ~frozen ~spent =
  let iters = ref 0 in
  let bland_after = max 200 (4 * (core.m + core.n)) in
  let y = Array.make core.m 0. in
  let w = Array.make core.m 0. in
  let rec loop () =
    if !iters > max_iters then `Iter_limit
    else if !iters land 127 = 0 && Mf_util.Budget.over budget then `Iter_limit
    else begin
      compute_y core c y;
      let bland = !iters > bland_after in
      let j = choose_entering core ~c ~y ~bland ~frozen in
      if j < 0 then `Optimal
      else begin
        incr iters;
        Atomic.incr Stats.primal_pivots;
        incr spent;
        match primal_step core j w with
        | `Unbounded -> `Unbounded
        | `Progress -> loop ()
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* dual simplex (warm path) *)

(* Re-optimise a dual-feasible basis whose [xb] violates bounds — the
   branch-and-bound child-node case.  Leaving row: largest bound violation
   (ties to the smallest row).  Entering column: among nonbasic, non-fixed
   columns whose tableau-row entry lets the leaving variable move back to
   its violated bound while keeping dual feasibility, the smallest ratio
   |d_j| / |alpha_j| (ties to the smallest column).  Columns with equal
   bounds are excluded: a fixed primal variable imposes no dual-sign
   constraint, so skipping them keeps the no-entering-column certificate
   (primal infeasibility) valid.  Short-step variant — no dual bound-flip
   ratio test; termination is guaranteed by [max_iters] with a cold
   fallback behind it. *)
let dual_opt core ~c ~max_iters ~budget ~spent =
  let y = Array.make core.m 0. in
  let rho = Array.make core.m 0. in
  let w = Array.make core.m 0. in
  let iters = ref 0 in
  let rec loop () =
    if !iters > max_iters then `Iter_limit
    else if !iters land 127 = 0 && Mf_util.Budget.over budget then `Iter_limit
    else begin
      let r = ref (-1) in
      let viol = ref eps_feas in
      let below = ref false in
      for i = 0 to core.m - 1 do
        let bvar = core.basic.(i) in
        let v_lo = core.lower.(bvar) -. core.xb.(i) in
        let v_up = core.xb.(i) -. core.upper.(bvar) in
        if v_lo > !viol then begin
          viol := v_lo;
          r := i;
          below := true
        end;
        if v_up > !viol then begin
          viol := v_up;
          r := i;
          below := false
        end
      done;
      if !r < 0 then `Feasible
      else begin
        let r = !r and below = !below in
        Array.fill rho 0 core.m 0.;
        rho.(r) <- 1.;
        btran core rho;
        compute_y core c y;
        let q = ref (-1) in
        let best = ref infinity in
        for j = 0 to core.n - 1 do
          if core.vstat.(j) <> Basic && core.upper.(j) -. core.lower.(j) >= eps_feas
          then begin
            let alpha = row_dot core rho j in
            let eligible =
              if below then
                (core.vstat.(j) = At_lower && alpha < -.eps_pivot)
                || (core.vstat.(j) = At_upper && alpha > eps_pivot)
              else
                (core.vstat.(j) = At_lower && alpha > eps_pivot)
                || (core.vstat.(j) = At_upper && alpha < -.eps_pivot)
            in
            if eligible then begin
              let ratio = abs_float (reduced core c y j) /. abs_float alpha in
              if ratio < !best -. 1e-12 then begin
                best := ratio;
                q := j
              end
            end
          end
        done;
        if !q < 0 then
          (* dual unbounded: certifies the primal has no feasible point *)
          `Infeasible
        else begin
          let q = !q in
          load_col core q w;
          ftran core w;
          if abs_float w.(r) < eps_pivot then `Breakdown
          else begin
            incr iters;
            Atomic.incr Stats.dual_pivots;
            incr spent;
            (* theta: signed move of the entering variable that drives the
               leaving variable exactly onto its violated bound *)
            let target =
              if below then core.lower.(core.basic.(r))
              else core.upper.(core.basic.(r))
            in
            let theta = (core.xb.(r) -. target) /. w.(r) in
            let enter_value = nonbasic_value core q +. theta in
            for i = 0 to core.m - 1 do
              if i <> r then core.xb.(i) <- core.xb.(i) -. (w.(i) *. theta)
            done;
            let old = core.basic.(r) in
            core.vstat.(old) <- (if below then At_lower else At_upper);
            core.basic.(r) <- q;
            core.vstat.(q) <- Basic;
            core.xb.(r) <- enter_value;
            push_eta core (eta_of w r);
            maybe_refactor core;
            loop ()
          end
        end
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* solution extraction *)

let values_of core n_structural =
  let x = Array.make n_structural 0. in
  for j = 0 to n_structural - 1 do
    if core.vstat.(j) <> Basic then x.(j) <- nonbasic_value core j
  done;
  for i = 0 to core.m - 1 do
    if core.basic.(i) < n_structural then x.(core.basic.(i)) <- core.xb.(i)
  done;
  x

let extract core ~n_structural ~c outcome =
  let values = values_of core n_structural in
  let objective = ref 0. in
  for j = 0 to n_structural - 1 do
    objective := !objective +. (c.(j) *. values.(j))
  done;
  match outcome with
  | `Optimal -> Optimal { objective = !objective; values }
  | `Iter_limit ->
    (* primal feasibility is maintained, so even a truncated run yields a
       usable (suboptimal) point *)
    Feasible { objective = !objective; values }

let snapshot core ~n_structural =
  (* storable only when no artificial occupies the basis *)
  if Array.exists (fun j -> j >= n_structural) core.basic then None
  else
    Some
      { basic = Array.copy core.basic; vstat = Array.sub core.vstat 0 n_structural }

(* ------------------------------------------------------------------ *)
(* cold path: two-phase primal from an artificial basis *)

let phase1_objective core ~n_structural =
  let total = ref 0. in
  for i = 0 to core.m - 1 do
    if core.basic.(i) >= n_structural then total := !total +. core.xb.(i)
  done;
  for j = n_structural to core.n - 1 do
    if core.vstat.(j) <> Basic then total := !total +. nonbasic_value core j
  done;
  !total

(* After phase 1, pivot any artificial still in the basis out (its value
   is ~0) via a zero-length pivot on the first usable nonbasic structural
   column of its tableau row; an artificial whose row has no usable pivot
   marks a redundant row and stays basic at zero, frozen in phase 2. *)
let expel_artificials core ~n_structural =
  let rho = Array.make core.m 0. in
  let w = Array.make core.m 0. in
  let stuck = Array.make (core.n - n_structural) false in
  let find_artificial_row () =
    let found = ref (-1) in
    (try
       for i = 0 to core.m - 1 do
         let bvar = core.basic.(i) in
         if bvar >= n_structural && not stuck.(bvar - n_structural) then begin
           found := i;
           raise Exit
         end
       done
     with Exit -> ());
    !found
  in
  let rec go () =
    let i = find_artificial_row () in
    if i >= 0 then begin
      Array.fill rho 0 core.m 0.;
      rho.(i) <- 1.;
      btran core rho;
      let enter = ref (-1) in
      let j = ref 0 in
      while !enter < 0 && !j < n_structural do
        if core.vstat.(!j) <> Basic && abs_float (row_dot core rho !j) > 1e-6 then
          enter := !j;
        incr j
      done;
      (if !enter < 0 then stuck.(core.basic.(i) - n_structural) <- true
       else begin
         let q = !enter in
         load_col core q w;
         ftran core w;
         (* the artificial being expelled is at ~0, so the step is zero and
            the entering variable keeps its current bound value *)
         let enter_value = nonbasic_value core q in
         let old = core.basic.(i) in
         core.vstat.(old) <- At_lower;
         core.basic.(i) <- q;
         core.vstat.(q) <- Basic;
         core.xb.(i) <- enter_value;
         push_eta core (eta_of w i);
         maybe_refactor core
       end);
      go ()
    end
  in
  go ()

let solve_cold ~max_iters ~budget (problem : problem) ~lower ~upper ~c ~spent_p =
  let m = problem.m in
  let n_structural = problem.n in
  let n = n_structural + m in
  Atomic.incr Stats.phase1_solves;
  (* residual of each row with structural variables at their lower bounds
     fixes each artificial's sign so the all-artificial basis is feasible *)
  let residual = Array.copy problem.b in
  for j = 0 to n_structural - 1 do
    if lower.(j) <> 0. then begin
      let cj = problem.cols.(j) in
      for p = 0 to Array.length cj.idx - 1 do
        residual.(cj.idx.(p)) <- residual.(cj.idx.(p)) -. (cj.v.(p) *. lower.(j))
      done
    end
  done;
  let cols =
    Array.init n (fun j ->
        if j < n_structural then problem.cols.(j)
        else begin
          let i = j - n_structural in
          { idx = [| i |]; v = [| (if residual.(i) < 0. then -1. else 1.) |] }
        end)
  in
  let core =
    {
      m;
      n;
      cols;
      b = problem.b;
      lower = Array.append lower (Array.make m 0.);
      upper = Array.append upper (Array.make m infinity);
      basic = Array.init m (fun i -> n_structural + i);
      vstat = Array.init n (fun j -> if j < n_structural then At_lower else Basic);
      xb = Array.make m 0.;
      etas = Array.make 16 { er = 0; ei = [||]; ev = [||] };
      n_etas = 0;
      fresh = 0;
    }
  in
  if not (factorize core) then
    raise (Singular "Simplex: singular artificial basis (impossible)");
  compute_xb core;
  (* Phase 1: minimise the sum of artificials. *)
  let phase1_cost = Array.init n (fun j -> if j >= n_structural then 1. else 0.) in
  match
    primal_opt core ~c:phase1_cost ~max_iters ~budget ~frozen:(fun _ -> false)
      ~spent:spent_p
  with
  | `Unbounded -> failwith "Simplex: phase 1 unbounded (impossible)"
  | `Iter_limit ->
    (* no feasible point reached yet: nothing salvageable *)
    (Iter_limit, None)
  | `Optimal ->
    if phase1_objective core ~n_structural > 1e-6 then (Infeasible, None)
    else begin
      expel_artificials core ~n_structural;
      (* Phase 2: real objective; artificial columns are frozen out. *)
      let phase2_cost =
        Array.init n (fun j -> if j < n_structural then c.(j) else 0.)
      in
      let frozen j = j >= n_structural in
      match primal_opt core ~c:phase2_cost ~max_iters ~budget ~frozen ~spent:spent_p with
      | `Unbounded -> (Unbounded, None)
      | (`Optimal | `Iter_limit) as outcome ->
        let result = extract core ~n_structural ~c outcome in
        let basis =
          match result with
          | Optimal _ -> snapshot core ~n_structural
          | _ -> None
        in
        (result, basis)
    end

(* ------------------------------------------------------------------ *)
(* warm path: dual re-optimisation from a supplied basis *)

let basis_shape_ok ~m ~n (wb : basis) =
  Array.length wb.basic = m
  && Array.length wb.vstat = n
  && Array.for_all (fun j -> j >= 0 && j < n && wb.vstat.(j) = Basic) wb.basic
  && begin
       let seen = Array.make n false in
       Array.for_all
         (fun j ->
           let fresh = not seen.(j) in
           seen.(j) <- true;
           fresh)
         wb.basic
     end
  && begin
       let n_basic = ref 0 in
       Array.iter (fun s -> if s = Basic then incr n_basic) wb.vstat;
       !n_basic = m
     end

(* Returns [Some (result, basis)] when the warm basis carried the solve to
   completion, [None] to request the cold fallback.  Never raises. *)
let solve_warm ~max_iters ~budget (problem : problem) ~lower ~upper ~c (wb : basis) ~spent_p
    ~spent_d =
  let m = problem.m in
  let n = problem.n in
  if not (basis_shape_ok ~m ~n wb) then None
  else begin
    let core =
      {
        m;
        n;
        cols = problem.cols;
        b = problem.b;
        lower;
        upper;
        basic = Array.copy wb.basic;
        vstat = Array.copy wb.vstat;
        xb = Array.make m 0.;
        etas = Array.make 16 { er = 0; ei = [||]; ev = [||] };
        n_etas = 0;
        fresh = 0;
      }
    in
    match
      if not (factorize core) then None
      else begin
        (* normalise statuses stranded by bound changes, then repair dual
           feasibility: a wrong-sign reduced cost on a boxed column is fixed
           by flipping it to its other bound (primal feasibility is the dual
           simplex's job); on an unboxed column it is unrepairable *)
        for j = 0 to n - 1 do
          if core.vstat.(j) = At_upper && core.upper.(j) = infinity then
            core.vstat.(j) <- At_lower
        done;
        let y = Array.make m 0. in
        compute_y core c y;
        let repairable = ref true in
        for j = 0 to n - 1 do
          if core.vstat.(j) <> Basic && core.upper.(j) -. core.lower.(j) >= eps_feas
          then begin
            let d = reduced core c y j in
            match core.vstat.(j) with
            | At_lower when d < -.eps_cost ->
              if core.upper.(j) < infinity then core.vstat.(j) <- At_upper
              else repairable := false
            | At_upper when d > eps_cost -> core.vstat.(j) <- At_lower
            | _ -> ()
          end
        done;
        if not !repairable then None
        else begin
          compute_xb core;
          match dual_opt core ~c ~max_iters ~budget ~spent:spent_d with
          | `Breakdown -> None
          | `Iter_limit ->
            (* a dual stall under budget pressure is a legitimate resource
               outcome (no primal-feasible point in hand); without pressure
               it asks for the cold fallback *)
            if Mf_util.Budget.over budget then Some (Iter_limit, None) else None
          | `Infeasible -> Some (Infeasible, None)
          | `Feasible -> (
            (* primal cleanup: confirms optimality, absorbs numerical drift;
               normally terminates with zero pivots *)
            match
              primal_opt core ~c ~max_iters ~budget ~frozen:(fun _ -> false)
                ~spent:spent_p
            with
            | `Unbounded -> Some (Unbounded, None)
            | (`Optimal | `Iter_limit) as outcome ->
              let result = extract core ~n_structural:n ~c outcome in
              let basis =
                match result with
                | Optimal _ -> snapshot core ~n_structural:n
                | _ -> None
              in
              Some (result, basis))
        end
      end
    with
    | outcome -> outcome
    | exception Singular _ -> None
  end

(* ------------------------------------------------------------------ *)
(* entry point *)

let solve ?max_iters ?budget ?warm (problem : problem) ~lower ~upper ~c =
  let m = problem.m in
  let n = problem.n in
  if Array.length problem.cols <> n || Array.length problem.b <> m then
    invalid_arg "Simplex.solve: malformed problem";
  if Array.length lower <> n || Array.length upper <> n || Array.length c <> n then
    invalid_arg "Simplex.solve: dimension mismatch";
  for j = 0 to n - 1 do
    if not (Float.is_finite lower.(j)) then
      invalid_arg "Simplex.solve: infinite lower bound";
    if upper.(j) < lower.(j) -. 1e-12 then invalid_arg "Simplex.solve: crossed bounds";
    let cj = problem.cols.(j) in
    if Array.length cj.idx <> Array.length cj.v then
      invalid_arg "Simplex.solve: ragged column";
    Array.iter
      (fun i -> if i < 0 || i >= m then invalid_arg "Simplex.solve: row out of range")
      cj.idx
  done;
  let max_iters =
    match max_iters with Some k -> k | None -> max 20_000 (200 * ((2 * m) + n))
  in
  (* Fault injection: starve the pivot budget so callers exercise their
     [Iter_limit] handling on real problems, not just mocks. *)
  let max_iters = if Mf_util.Chaos.strike Simplex_iters then min max_iters 3 else max_iters in
  let spent_p = ref 0 in
  let spent_d = ref 0 in
  let run_cold ~fell_back =
    match solve_cold ~max_iters ~budget problem ~lower ~upper ~c ~spent_p with
    | result, basis ->
      ( result,
        basis,
        { primal_pivots = !spent_p; dual_pivots = !spent_d; warm = false; fell_back } )
    | exception Singular msg -> raise (Failure msg)
  in
  match warm with
  | None -> run_cold ~fell_back:false
  | Some wb -> (
    match solve_warm ~max_iters ~budget problem ~lower ~upper ~c wb ~spent_p ~spent_d with
    | Some (result, basis) ->
      ( result,
        basis,
        {
          primal_pivots = !spent_p;
          dual_pivots = !spent_d;
          warm = true;
          fell_back = false;
        } )
    | None -> run_cold ~fell_back:true)
