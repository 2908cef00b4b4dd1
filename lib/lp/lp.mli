(** Incremental linear-program builder over {!Simplex}.

    Rows may be inequalities; logical (slack/surplus) variables and
    conversion to the simplex computational form happen at solve time, and
    the compiled sparse model is cached across solves until the builder is
    mutated.  The objective sense is minimisation. *)

type t
type var = int

type relation = Le | Ge | Eq

type result =
  | Optimal of { objective : float; values : float array }
      (** [values] is indexed by {!var}. *)
  | Feasible of { objective : float; values : float array }
      (** primal-feasible but possibly suboptimal — the pivot or wall-clock
          budget ran out during phase 2 *)
  | Iter_limit
      (** the budget ran out before any feasible point was found *)
  | Infeasible
  | Unbounded
  | Numerical of string
      (** the simplex hit a numerically singular pivot; the message is the
          underlying diagnostic *)

type basis
(** A warm-start handle: the optimal basis of a previous {!solve_b} on this
    builder (or on an earlier, smaller state of it).  Opaque; pass it back
    via [?warm].  Remains usable after rows are appended — lazy cuts extend
    the basis with their logicals basic — and under different [?fix]
    lists, which is how branch-and-bound children reuse the parent node's
    basis. *)

type info = Simplex.info = {
  primal_pivots : int;
  dual_pivots : int;
  warm : bool;  (** solved by dual re-optimisation of the warm basis *)
  fell_back : bool;  (** a warm basis was supplied but abandoned *)
}
(** Per-solve effort accounting; see {!Simplex.info}. *)

val create : unit -> t

val add_var : ?lower:float -> ?upper:float -> ?obj:float -> t -> var
(** [add_var t] declares a variable with bounds [\[lower, upper\]]
    (default [\[0, infinity)]) and objective coefficient [obj] (default 0). *)

val n_vars : t -> int

val set_obj : t -> var -> float -> unit
(** Overwrite a variable's objective coefficient. *)

val add_row : t -> (float * var) list -> relation -> float -> unit
(** [add_row t terms rel rhs] adds the constraint [Σ coef·var rel rhs].
    Repeated variables in [terms] are summed. *)

val prepare : t -> unit
(** Compile and cache the sparse model now.  {!solve_b} compiles lazily
    and caches on the builder; calling [prepare] before fanning solves out
    across domains keeps that one mutation on the coordinator, after which
    concurrent [solve_b] calls only read the compiled form. *)

val solve_b :
  ?max_iters:int ->
  ?budget:Mf_util.Budget.t ->
  ?fix:(var * float) list ->
  ?warm:basis ->
  t ->
  result * basis option * info
(** Solve the LP (relaxation).  Each [(v, x)] in [fix] clamps both bounds
    of [v] to [x] for this solve only — how branch-and-bound explores
    subproblems without rebuilding the model.  A variable listed twice
    takes its first binding; the list is applied to copies of the bound
    arrays in one pass, so the cost is O(variables + fixings).  Raises
    [Invalid_argument] on a variable not in the builder.  The builder is
    reusable: more rows and variables may be added after a solve and the
    model solved again, which is how lazy loop-elimination constraints are
    injected.

    [warm] re-optimises from a previously returned basis with the dual
    simplex; when that breaks down the solve transparently restarts cold
    and reports it in {!info} — supplying [warm] never changes the result,
    only (usually) the effort.  The returned basis is [Some] exactly for
    [Optimal] results whose basis is storable; it is independent of the
    builder's later mutations.

    [budget] bounds wall-clock time; see {!Simplex.solve}.  Apart from a
    bad [fix], never raises: resource exhaustion surfaces as
    [Feasible]/[Iter_limit] and numerical breakdown as [Numerical]. *)

val solve :
  ?max_iters:int -> ?budget:Mf_util.Budget.t -> ?fix:(var * float) list -> t -> result
(** [solve t] is [solve_b t] without the warm-start plumbing — kept for
    callers that need only the result. *)
