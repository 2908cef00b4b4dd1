module Lp = Mf_lp.Lp
module Simplex = Mf_lp.Simplex
module Rng = Mf_util.Rng

let check = Alcotest.check
let feps = Alcotest.float 1e-6

let solve_exn lp =
  match Lp.solve lp with
  | Lp.Optimal { objective; values } -> (objective, values)
  | Lp.Feasible _ | Lp.Iter_limit -> Alcotest.fail "unexpected budget exhaustion"
  | Lp.Numerical m -> Alcotest.fail ("unexpected numerical failure: " ^ m)
  | Lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Lp.Unbounded -> Alcotest.fail "unexpected unbounded"

let test_basic_max () =
  (* max x+y st x+2y<=4, 3x+y<=6 -> (1.6, 1.2) *)
  let lp = Lp.create () in
  let x = Lp.add_var ~obj:(-1.) lp in
  let y = Lp.add_var ~obj:(-1.) lp in
  Lp.add_row lp [ (1., x); (2., y) ] Lp.Le 4.;
  Lp.add_row lp [ (3., x); (1., y) ] Lp.Le 6.;
  let obj, values = solve_exn lp in
  check feps "objective" (-2.8) obj;
  check feps "x" 1.6 values.(x);
  check feps "y" 1.2 values.(y)

let test_equality_and_ge () =
  let lp = Lp.create () in
  let x = Lp.add_var ~obj:1. lp in
  let y = Lp.add_var ~obj:2. lp in
  Lp.add_row lp [ (1., x); (1., y) ] Lp.Eq 10.;
  Lp.add_row lp [ (1., y) ] Lp.Ge 3.;
  let obj, values = solve_exn lp in
  check feps "objective" 13. obj;
  check feps "y at its bound" 3. values.(y)

let test_infeasible () =
  let lp = Lp.create () in
  let x = Lp.add_var ~upper:1. lp in
  Lp.add_row lp [ (1., x) ] Lp.Ge 2.;
  check Alcotest.bool "infeasible" true (Lp.solve lp = Lp.Infeasible)

let test_infeasible_rows () =
  let lp = Lp.create () in
  let x = Lp.add_var lp in
  Lp.add_row lp [ (1., x) ] Lp.Le 1.;
  Lp.add_row lp [ (1., x) ] Lp.Ge 2.;
  check Alcotest.bool "conflicting rows" true (Lp.solve lp = Lp.Infeasible)

let test_unbounded () =
  let lp = Lp.create () in
  let x = Lp.add_var ~obj:(-1.) lp in
  Lp.add_row lp [ (1., x) ] Lp.Ge 0.;
  check Alcotest.bool "unbounded" true (Lp.solve lp = Lp.Unbounded)

let test_variable_bounds () =
  (* bounds handled without explicit rows: min -x -2y, x<=3, y<=2 *)
  let lp = Lp.create () in
  let x = Lp.add_var ~upper:3. ~obj:(-1.) lp in
  let y = Lp.add_var ~upper:2. ~obj:(-2.) lp in
  Lp.add_row lp [ (1., x); (1., y) ] Lp.Le 100.;
  let obj, values = solve_exn lp in
  check feps "x at upper" 3. values.(x);
  check feps "y at upper" 2. values.(y);
  check feps "objective" (-7.) obj

let test_lower_bounds () =
  let lp = Lp.create () in
  let x = Lp.add_var ~lower:2. ~obj:1. lp in
  let y = Lp.add_var ~lower:1. ~obj:1. lp in
  Lp.add_row lp [ (1., x); (1., y) ] Lp.Le 10.;
  let obj, _ = solve_exn lp in
  check feps "rest at lower bounds" 3. obj

let test_fixing () =
  let lp = Lp.create () in
  let x = Lp.add_var ~upper:1. ~obj:(-1.) lp in
  let y = Lp.add_var ~upper:1. ~obj:(-1.) lp in
  Lp.add_row lp [ (1., x); (1., y) ] Lp.Le 2.;
  let fix = [ (x, 0.) ] in
  (match Lp.solve ~fix lp with
   | Lp.Optimal { objective; values } ->
     check feps "x fixed" 0. values.(x);
     check feps "obj with fixing" (-1.) objective
   | Lp.Infeasible | Lp.Unbounded | Lp.Feasible _ | Lp.Iter_limit | Lp.Numerical _ ->
     Alcotest.fail "expected optimal");
  (* without fixing the model is untouched *)
  let obj, _ = solve_exn lp in
  check feps "obj without fixing" (-2.) obj

let test_degenerate () =
  (* many redundant constraints through one vertex *)
  let lp = Lp.create () in
  let x = Lp.add_var ~obj:(-1.) lp in
  let y = Lp.add_var ~obj:(-1.) lp in
  Lp.add_row lp [ (1., x); (1., y) ] Lp.Le 2.;
  Lp.add_row lp [ (2., x); (2., y) ] Lp.Le 4.;
  Lp.add_row lp [ (1., x) ] Lp.Le 1.;
  Lp.add_row lp [ (1., y) ] Lp.Le 1.;
  Lp.add_row lp [ (3., x); (3., y) ] Lp.Le 6.;
  let obj, _ = solve_exn lp in
  check feps "degenerate optimum" (-2.) obj

let test_duplicate_terms () =
  (* repeated variables in a row are summed *)
  let lp = Lp.create () in
  let x = Lp.add_var ~obj:(-1.) lp in
  Lp.add_row lp [ (1., x); (1., x) ] Lp.Le 4.;
  let obj, values = solve_exn lp in
  check feps "2x <= 4" 2. values.(x);
  check feps "objective" (-2.) obj

let test_set_obj () =
  let lp = Lp.create () in
  let x = Lp.add_var ~upper:5. lp in
  Lp.add_row lp [ (1., x) ] Lp.Ge 1.;
  Lp.set_obj lp x (-1.);
  let obj, _ = solve_exn lp in
  check feps "maximise after set_obj" (-5.) obj

let test_bad_inputs () =
  let lp = Lp.create () in
  let x = Lp.add_var lp in
  Alcotest.check_raises "bad var in row" (Invalid_argument "Lp.add_row: bad variable") (fun () ->
      Lp.add_row lp [ (1., x + 1) ] Lp.Le 1.);
  (* a fixing past the structural variables would clamp a logical *)
  Lp.add_row lp [ (1., x) ] Lp.Le 1.;
  Alcotest.check_raises "bad fixed var" (Invalid_argument "Lp.solve_b: bad fixed variable")
    (fun () -> ignore (Lp.solve ~fix:[ (x + 1, 0.) ] lp))

(* Random LPs with a known feasible point: the optimum must not exceed the
   witness objective, and returned values must satisfy all rows. *)
let random_lp_prop =
  QCheck.Test.make ~name:"optimal <= witness and solution feasible" ~count:100 QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed:(abs seed) in
      let n = 2 + Rng.int rng 4 in
      let m = 1 + Rng.int rng 5 in
      let lp = Lp.create () in
      let witness = Array.init n (fun _ -> Rng.float rng 5.) in
      let cost = Array.init n (fun _ -> Rng.float rng 4. -. 2.) in
      let vars = Array.init n (fun j -> Lp.add_var ~upper:10. ~obj:cost.(j) lp) in
      let rows = ref [] in
      for _ = 1 to m do
        let coefs = Array.init n (fun _ -> Rng.float rng 3.) in
        let lhs = ref 0. in
        Array.iteri (fun j c -> lhs := !lhs +. (c *. witness.(j))) coefs;
        (* rhs chosen so the witness satisfies the row *)
        let rhs = !lhs +. Rng.float rng 2. in
        let terms = Array.to_list (Array.mapi (fun j c -> (c, vars.(j))) coefs) in
        Lp.add_row lp terms Lp.Le rhs;
        rows := (coefs, rhs) :: !rows
      done;
      let witness_obj = ref 0. in
      Array.iteri (fun j c -> witness_obj := !witness_obj +. (c *. witness.(j))) cost;
      match Lp.solve lp with
      | Lp.Infeasible | Lp.Unbounded | Lp.Feasible _ | Lp.Iter_limit | Lp.Numerical _ -> false
      | Lp.Optimal { objective; values } ->
        objective <= !witness_obj +. 1e-6
        && Array.for_all (fun x -> x >= -1e-6 && x <= 10. +. 1e-6) values
        && List.for_all
             (fun (coefs, rhs) ->
               let lhs = ref 0. in
               Array.iteri (fun j c -> lhs := !lhs +. (c *. values.(j))) coefs;
               !lhs <= rhs +. 1e-5)
             !rows)

(* Differential property for the warm-start machinery: after a
   branching-style fixing (and sometimes a lazily appended cut row), the
   dual re-optimisation from the parent optimal basis and a cold primal
   solve must agree on feasibility and, when both optimal, on the objective
   to 1e-6.  All variables are boxed, so every subproblem is bounded. *)
let warm_cold_prop =
  QCheck.Test.make ~name:"warm dual agrees with cold primal" ~count:200 QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed:(abs seed) in
      let n = 2 + Rng.int rng 6 in
      let m = 1 + Rng.int rng 6 in
      let lp = Lp.create () in
      let witness = Array.init n (fun _ -> Rng.float rng 1.) in
      let vars =
        Array.init n (fun _ -> Lp.add_var ~upper:1. ~obj:(Rng.float rng 4. -. 2.) lp)
      in
      for _ = 1 to m do
        let coefs = Array.init n (fun _ -> Rng.float rng 3. -. 1.) in
        let lhs = ref 0. in
        Array.iteri (fun j c -> lhs := !lhs +. (c *. witness.(j))) coefs;
        let terms = Array.to_list (Array.mapi (fun j c -> (c, vars.(j))) coefs) in
        (* rhs keeps the witness feasible for the root; fixings below may
           still cut it off, which both solvers must then report *)
        if Rng.bool rng then Lp.add_row lp terms Lp.Le (!lhs +. Rng.float rng 1.)
        else Lp.add_row lp terms Lp.Ge (!lhs -. Rng.float rng 1.)
      done;
      match Lp.solve_b lp with
      | Lp.Optimal _, Some parent, _ ->
        (* a branching step: clamp a few variables to 0/1 *)
        let fixed = Array.init n (fun _ -> if Rng.int rng 3 = 0 then Some (float_of_int (Rng.int rng 2)) else None) in
        let fix =
          List.filter_map Fun.id
            (Array.to_list (Array.mapi (fun j var -> Option.map (fun x -> (var, x)) fixed.(j)) vars))
        in
        (* half the time, also append a cut row (basis extension path) *)
        if Rng.bool rng then begin
          let coefs = Array.init n (fun _ -> Rng.float rng 2.) in
          let terms = Array.to_list (Array.mapi (fun j c -> (c, vars.(j))) coefs) in
          Lp.add_row lp terms Lp.Le (Rng.float rng (float_of_int n))
        end;
        let cold, _, cold_info = Lp.solve_b ~fix lp in
        let warm, _, _ = Lp.solve_b ~fix ~warm:parent lp in
        if cold_info.Lp.warm then false (* no basis was passed: must be cold *)
        else begin
          match (cold, warm) with
          | Lp.Optimal { objective = a; _ }, Lp.Optimal { objective = b; _ } ->
            abs_float (a -. b) < 1e-6
          | Lp.Infeasible, Lp.Infeasible -> true
          | _ -> false
        end
      | (Lp.Infeasible | Lp.Numerical _), _, _ -> true (* nothing to warm-start *)
      | _ -> false)

(* Random sparse models at the scale of the chip relaxations: 300-359 rows,
   2-5 nonzeros per row, every variable boxed.  Only the first quarter of
   the rows is present when the parent basis is taken; the rest arrive like
   a round of lazy cuts, logicals basic, together with a branching-style
   fixing.  The cold solve runs several times past the 64-eta
   refactorisation interval, and the warm dual sometimes once. *)
let sparse_lp rng =
  let m = 300 + Rng.int rng 60 in
  let n = m + Rng.int rng 100 in
  let lp = Lp.create () in
  let witness = Array.init n (fun _ -> Rng.float rng 1.) in
  let vars = Array.init n (fun _ -> Lp.add_var ~upper:1. ~obj:(Rng.float rng 4. -. 2.) lp) in
  let rows =
    List.init m (fun _ ->
        let terms =
          List.init (2 + Rng.int rng 4) (fun _ -> (Rng.float rng 3. -. 1., vars.(Rng.int rng n)))
        in
        let lhs = List.fold_left (fun acc (c, v) -> acc +. (c *. witness.(v))) 0. terms in
        if Rng.bool rng then (terms, Lp.Le, lhs +. Rng.float rng 2.)
        else (terms, Lp.Ge, lhs -. Rng.float rng 2.))
  in
  (lp, vars, rows)

let sparse_warm_cold_prop =
  QCheck.Test.make ~name:"warm dual agrees with cold primal on sparse m>=300 models"
    ~count:20 QCheck.int (fun seed ->
      let rng = Rng.create ~seed:(abs seed) in
      let lp, vars, rows = sparse_lp rng in
      let early = List.length rows / 4 in
      let add = List.iter (fun (terms, rel, rhs) -> Lp.add_row lp terms rel rhs) in
      add (List.filteri (fun i _ -> i < early) rows);
      match Lp.solve_b lp with
      | Lp.Optimal _, Some parent, _ ->
        add (List.filteri (fun i _ -> i >= early) rows);
        let fix =
          Array.to_list vars
          |> List.filter_map (fun v ->
                 if Rng.int rng 40 = 0 then Some (v, float_of_int (Rng.int rng 2)) else None)
        in
        let cold, _, cold_info = Lp.solve_b ~fix lp in
        let warm, _, _ = Lp.solve_b ~fix ~warm:parent lp in
        cold_info.Lp.primal_pivots > 64
        && (not cold_info.Lp.warm)
        && begin
          match (cold, warm) with
          | Lp.Optimal { objective = a; _ }, Lp.Optimal { objective = b; _ } ->
            abs_float (a -. b) < 1e-6
          | Lp.Infeasible, Lp.Infeasible -> true
          | _ -> false
        end
      | (Lp.Infeasible | Lp.Numerical _), _, _ -> true
      | _ -> false)

(* A warm basis whose columns are linearly dependent (a column and its
   duplicate both basic) fails the factorisation partway through; the
   solve must fall back to the cold path and return exactly the cold
   result. *)
let test_singular_warm_basis () =
  let rng = Rng.create ~seed:7 in
  let m = 300 in
  let random_col () =
    let rows = List.sort_uniq compare (List.init (2 + Rng.int rng 3) (fun _ -> Rng.int rng m)) in
    {
      Simplex.idx = Array.of_list rows;
      v = Array.of_list (List.map (fun _ -> Rng.float rng 3. -. 1.) rows);
    }
  in
  let structural = Array.init m (fun _ -> random_col ()) in
  let slacks = Array.init m (fun i -> { Simplex.idx = [| i |]; v = [| 1. |] }) in
  let cols = Array.concat [ structural; slacks; [| structural.(0) |] ] in
  let n = Array.length cols in
  let dup = n - 1 in
  let boxed j = j < m || j = dup in
  (* right-hand side keeps a random fractional point feasible *)
  let b = Array.init m (fun _ -> Rng.float rng 1.) in
  Array.iter
    (fun (c : Simplex.col) ->
      let x = Rng.float rng 1. in
      Array.iteri (fun p i -> b.(i) <- b.(i) +. (c.Simplex.v.(p) *. x)) c.Simplex.idx)
    structural;
  let lower = Array.make n 0. in
  let upper = Array.init n (fun j -> if boxed j then 1. else infinity) in
  let c = Array.init n (fun j -> if boxed j then Rng.float rng 4. -. 2. else 0.) in
  let problem = { Simplex.m; n; cols; b } in
  let cold, _, cold_info = Simplex.solve problem ~lower ~upper ~c in
  let basic = Array.init m (fun i -> m + i) in
  basic.(0) <- 0;
  basic.(1) <- dup;
  let vstat = Array.make n Simplex.At_lower in
  Array.iter (fun j -> vstat.(j) <- Simplex.Basic) basic;
  let warm, _, warm_info = Simplex.solve ~warm:{ Simplex.basic; vstat } problem ~lower ~upper ~c in
  check Alcotest.bool "cold optimal" true
    (match cold with Simplex.Optimal _ -> true | _ -> false);
  check Alcotest.bool "cold root crossed a refactorisation" true
    (cold_info.Simplex.primal_pivots > 64);
  check Alcotest.bool "fell back" true warm_info.Simplex.fell_back;
  check Alcotest.bool "not warm" false warm_info.Simplex.warm;
  check Alcotest.int "cold pivots" cold_info.Simplex.primal_pivots warm_info.Simplex.primal_pivots;
  check Alcotest.bool "cold result" true (warm = cold)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  (* exact-value assertions require the fault-free pipeline *)
  Mf_util.Chaos.neutralise ();
  Alcotest.run "mf_lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "basic max" `Quick test_basic_max;
          Alcotest.test_case "equality and >=" `Quick test_equality_and_ge;
          Alcotest.test_case "infeasible bound" `Quick test_infeasible;
          Alcotest.test_case "infeasible rows" `Quick test_infeasible_rows;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "upper bounds" `Quick test_variable_bounds;
          Alcotest.test_case "lower bounds" `Quick test_lower_bounds;
          Alcotest.test_case "per-solve fixing" `Quick test_fixing;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
          Alcotest.test_case "duplicate terms" `Quick test_duplicate_terms;
          Alcotest.test_case "set_obj" `Quick test_set_obj;
          Alcotest.test_case "bad inputs" `Quick test_bad_inputs;
          qt random_lp_prop;
          qt warm_cold_prop;
          Alcotest.test_case "singular warm basis falls back" `Quick test_singular_warm_basis;
          qt sparse_warm_cold_prop;
        ] );
    ]
