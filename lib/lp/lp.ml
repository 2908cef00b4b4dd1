type var = int

type relation = Le | Ge | Eq

type row = { terms : (float * var) list; rel : relation; rhs : float }

(* The builder compiled to the simplex computational form: structural
   columns 0..nv-1 followed by one logical (slack/surplus) column per
   inequality row, in row order.  Rows and variables are append-only, so a
   later compilation of the same builder extends this one column layout —
   the property the warm-basis extension below relies on. *)
type compiled = {
  k_nv : int; (* structural variables *)
  k_m : int; (* rows *)
  k_n : int; (* columns: nv + logicals *)
  k_rels : relation array; (* per row, for basis extension *)
  k_problem : Simplex.problem;
  k_lower : float array; (* base bounds; copied before per-solve fixing *)
  k_upper : float array;
  k_c : float array;
}

type t = {
  mutable lower : float list; (* reversed *)
  mutable upper : float list;
  mutable obj : float list;
  mutable nv : int;
  mutable rows : row list; (* reversed *)
  mutable compiled : compiled option; (* invalidated by every mutation *)
}

type result =
  | Optimal of { objective : float; values : float array }
  | Feasible of { objective : float; values : float array }
  | Iter_limit
  | Infeasible
  | Unbounded
  | Numerical of string

type basis = { b_nv : int; b_sx : Simplex.basis }

type info = Simplex.info = {
  primal_pivots : int;
  dual_pivots : int;
  warm : bool;
  fell_back : bool;
}

let create () =
  { lower = []; upper = []; obj = []; nv = 0; rows = []; compiled = None }

let add_var ?(lower = 0.) ?(upper = infinity) ?(obj = 0.) t =
  let id = t.nv in
  t.lower <- lower :: t.lower;
  t.upper <- upper :: t.upper;
  t.obj <- obj :: t.obj;
  t.nv <- t.nv + 1;
  t.compiled <- None;
  id

let n_vars t = t.nv

let set_obj t v coeff =
  if v < 0 || v >= t.nv then invalid_arg "Lp.set_obj: bad variable";
  t.obj <- List.mapi (fun i c -> if i = t.nv - 1 - v then coeff else c) t.obj;
  t.compiled <- None

let add_row t terms rel rhs =
  List.iter
    (fun (_, v) -> if v < 0 || v >= t.nv then invalid_arg "Lp.add_row: bad variable")
    terms;
  t.rows <- { terms; rel; rhs } :: t.rows;
  t.compiled <- None

(* Merge duplicate variables of a term list, sorted by variable. *)
let merge_terms terms =
  let sorted = List.stable_sort (fun (_, a) (_, b) -> compare (a : int) b) terms in
  let out = ref [] in
  List.iter
    (fun (coef, v) ->
      match !out with
      | (c0, v0) :: rest when v0 = v -> out := (c0 +. coef, v0) :: rest
      | _ -> out := (coef, v) :: !out)
    sorted;
  List.rev !out

let compile t =
  match t.compiled with
  | Some k -> k
  | None ->
    let nv = t.nv in
    let rows = Array.of_list (List.rev t.rows) in
    let m = Array.length rows in
    let n_logical = Array.fold_left (fun k r -> if r.rel = Eq then k else k + 1) 0 rows in
    let n = nv + n_logical in
    let lower = Array.make n 0. in
    let upper = Array.make n infinity in
    let c = Array.make n 0. in
    List.iteri (fun i v -> lower.(nv - 1 - i) <- v) t.lower;
    List.iteri (fun i v -> upper.(nv - 1 - i) <- v) t.upper;
    List.iteri (fun i v -> c.(nv - 1 - i) <- v) t.obj;
    (* per-row term lists with duplicate variables merged, sorted by
       variable — the stable sort keeps the summation order deterministic *)
    let merged = Array.map (fun r -> Array.of_list (merge_terms r.terms)) rows in
    (* gather structural columns row-major so indices come out ascending *)
    let counts = Array.make nv 0 in
    Array.iter (Array.iter (fun (_, v) -> counts.(v) <- counts.(v) + 1)) merged;
    let cols = Array.make n { Simplex.idx = [||]; v = [||] } in
    for j = 0 to nv - 1 do
      cols.(j) <- { Simplex.idx = Array.make counts.(j) 0; v = Array.make counts.(j) 0. }
    done;
    let fill = Array.make nv 0 in
    Array.iteri
      (fun i terms ->
        Array.iter
          (fun (coef, v) ->
            let p = fill.(v) in
            cols.(v).Simplex.idx.(p) <- i;
            cols.(v).Simplex.v.(p) <- coef;
            fill.(v) <- p + 1)
          terms)
      merged;
    let b = Array.make m 0. in
    let rels = Array.make m Eq in
    let q = ref nv in
    Array.iteri
      (fun i r ->
        b.(i) <- r.rhs;
        rels.(i) <- r.rel;
        match r.rel with
        | Eq -> ()
        | Le ->
          cols.(!q) <- { Simplex.idx = [| i |]; v = [| 1. |] };
          incr q
        | Ge ->
          cols.(!q) <- { Simplex.idx = [| i |]; v = [| -1. |] };
          incr q)
      rows;
    let k =
      {
        k_nv = nv;
        k_m = m;
        k_n = n;
        k_rels = rels;
        k_problem = { Simplex.m; n; cols; b };
        k_lower = lower;
        k_upper = upper;
        k_c = c;
      }
    in
    t.compiled <- Some k;
    k

(* Lift a basis captured on an earlier compilation of this builder onto the
   current one.  Rows are append-only and logicals follow row order, so the
   old columns are a prefix of the new layout; each appended inequality row
   extends the basis block-triangularly with its own logical basic (its dual
   value is 0, leaving every old reduced cost unchanged — the parent basis
   stays dual-feasible).  Returns [None] when the basis cannot be lifted:
   different structural count, rows removed, an appended equality row (no
   logical to make basic), or a stale layout. *)
let extend_basis (wb : basis) (k : compiled) : Simplex.basis option =
  let m_old = Array.length wb.b_sx.Simplex.basic in
  let n_old = Array.length wb.b_sx.Simplex.vstat in
  if wb.b_nv <> k.k_nv || m_old > k.k_m then None
  else begin
    let prefix_logicals = ref 0 in
    for i = 0 to m_old - 1 do
      if k.k_rels.(i) <> Eq then incr prefix_logicals
    done;
    if n_old <> k.k_nv + !prefix_logicals then None
    else begin
      let appended_eq = ref false in
      for i = m_old to k.k_m - 1 do
        if k.k_rels.(i) = Eq then appended_eq := true
      done;
      if !appended_eq then None
      else if m_old = k.k_m then Some wb.b_sx
      else begin
        let vstat = Array.make k.k_n Simplex.Basic in
        Array.blit wb.b_sx.Simplex.vstat 0 vstat 0 n_old;
        let basic = Array.make k.k_m 0 in
        Array.blit wb.b_sx.Simplex.basic 0 basic 0 m_old;
        let next_logical = ref n_old in
        for i = m_old to k.k_m - 1 do
          basic.(i) <- !next_logical;
          incr next_logical
        done;
        Some { Simplex.basic; vstat }
      end
    end
  end

let no_info = { primal_pivots = 0; dual_pivots = 0; warm = false; fell_back = false }

let solve_b ?max_iters ?budget ?(fix = []) ?warm t =
  let k = compile t in
  let lower = Array.copy k.k_lower in
  let upper = Array.copy k.k_upper in
  (* reversed, so a variable listed twice ends at its first binding *)
  List.iter
    (fun (v, x) ->
      if v < 0 || v >= k.k_nv then invalid_arg "Lp.solve_b: bad fixed variable";
      lower.(v) <- x;
      upper.(v) <- x)
    (List.rev fix);
  let sx_warm = Option.bind warm (fun wb -> extend_basis wb k) in
  match Simplex.solve ?max_iters ?budget ?warm:sx_warm k.k_problem ~lower ~upper ~c:k.k_c with
  | exception Failure msg ->
    (Numerical msg, None, { no_info with fell_back = warm <> None })
  | sx_result, sx_basis, sx_info ->
    let result =
      match sx_result with
      | Simplex.Infeasible -> Infeasible
      | Simplex.Unbounded -> Unbounded
      | Simplex.Iter_limit -> Iter_limit
      | Simplex.Optimal { objective; values } ->
        Optimal { objective; values = Array.sub values 0 k.k_nv }
      | Simplex.Feasible { objective; values } ->
        Feasible { objective; values = Array.sub values 0 k.k_nv }
    in
    let basis = Option.map (fun sb -> { b_nv = k.k_nv; b_sx = sb }) sx_basis in
    (* a warm basis refused at the extension stage never reached the
       simplex; report it as a fallback all the same *)
    let info =
      if warm <> None && sx_warm = None then { sx_info with fell_back = true }
      else sx_info
    in
    (result, basis, info)

let solve ?max_iters ?budget ?fix t =
  let result, _, _ = solve_b ?max_iters ?budget ?fix t in
  result

let prepare t = ignore (compile t)
