(** Sparse revised simplex with warm starts: the library's one LP solver.

    A two-phase primal simplex (Dantzig pricing with the Bland
    anti-cycling switch) over sparse column storage and a maintained
    product-form basis factorization, so each iteration costs O(nnz)
    instead of O(rows x cols).  {!solve_lp} solves in floats and
    certifies the float basis over exact rationals, falling back to exact
    pivoting on any doubt; {!solve_with_basis} additionally threads bases
    in and out so {!Ilp.solve} can warm-start child nodes from the parent
    optimum.  Statistics go to {!Simplex.stats}. *)

type sparse_col = {
  cri : int array;  (** row indices, ascending *)
  crv : Rat.t array;  (** matching nonzero coefficients *)
}

(** Sparse standard form: minimize [c.x] s.t. [A x = b], [x >= 0],
    [b >= 0]; columns [0, s_nstruct) structural, artificials implicit
    (row [i]'s artificial is addressed as [s_ncols + i]). *)
type sparse_standard = {
  s_nrows : int;
  s_nstruct : int;
  s_ncols : int;
  s_cols : sparse_col array;
  s_rhs : Rat.t array;
  s_cost : Rat.t array;
  s_slack_basis : int array;  (** per row: ready-made basic column or -1 *)
  s_flip_objective : bool;
}

val sparse_standardize : Lp_problem.t -> sparse_standard

exception Singular_basis

module Make (F : Lp_field.FIELD) : sig
  type outcome =
    | Solved of {
        values : F.t array;  (** structural variables *)
        objective : F.t;  (** in the original direction *)
        basis : int array;
            (** standard-form column per row; [s_ncols + i] = row [i]'s
                artificial (redundant rows keep theirs, basic at 0) *)
        nstruct : int;
      }
    | Infeasible
    | Unbounded

  exception Iteration_limit

  val solve_std : ?warm:int array -> ?stall_threshold:int -> sparse_standard -> outcome
  (** [warm] is one standard-form column id per row ([-1] = that row's
      artificial), e.g. a basis returned by a previous [solve_std] on a
      problem whose rows are a prefix of this one; malformed, singular or
      irreparably infeasible warm bases fall back to a cold start.
      [stall_threshold] overrides the number of consecutive degenerate
      pivots tolerated before switching to Bland's rule (tests pin the
      switch path with [0]).
      @raise Iteration_limit if the safeguard cap is exceeded. *)

  val solve : ?warm:int array -> ?stall_threshold:int -> Lp_problem.t -> outcome

  val check_basis : sparse_standard -> int array -> (F.t array * F.t) option
  (** [(structural values, objective)] iff the basis is non-singular,
      primal feasible (artificials only at exactly zero) and dual
      feasible.  Meaningful for exact fields only. *)
end

module Float_rev : module type of Make (Lp_field.Float_field)
module Rat_rev : module type of Make (Lp_field.Rat_field)

type solution = {
  result : Lp_problem.result;
  basis : int array option;  (** optimal standard-form basis, if known *)
}

val solve_pure : Lp_problem.t -> Lp_problem.result
(** Pure exact revised simplex (no float pass); reference/ablation. *)

val certify : Lp_problem.t -> sparse_standard -> int array -> Lp_problem.result option
(** Exact certification of a (float) basis against the sparse standard
    form plus a final feasibility re-check on the original problem. *)

exception Solver_failure of { rows : int; cols : int }
(** The exact track exceeded its iteration cap on a standard form of
    [rows] rows and [cols] structural and slack columns.  Bland's rule
    rules this out, so it signals a bug in the solver, not a property of
    the LP; a printer is registered. *)

val solve_with_basis : ?warm:int array -> Lp_problem.t -> solution
(** Hybrid driver: float revised solve, exact sparse certification, exact
    revised fallback (warm-started from the float basis).  Statistics go
    to {!Simplex.stats}; [revised.*] telemetry counters record per-solve
    deltas when metrics are enabled.
    @raise Solver_failure if the exact fallback does not terminate. *)

val solve_lp : Lp_problem.t -> Lp_problem.result
(** [fun p -> (solve_with_basis p).result].
    @raise Solver_failure as {!solve_with_basis}. *)
