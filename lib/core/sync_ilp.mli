(** Certified optimal integral synchronized schedules via 0-1 branch and
    bound on the Section-3 program (with the paper's [D-1] padding slots).

    An independent witness for the rounding pipeline: the test suite checks
    [LP value <= ILP value], [rounded stall <= ILP value] (rounding may use
    [2(D-1)] extra slots, so it can be strictly better), and
    [OPT(k + D - 1) <= ILP <= OPT(k)].  Exponential; small instances only. *)

type outcome = {
  stall : Rat.t;  (** integral optimum, kept rational for comparisons *)
  nodes : int;  (** branch-and-bound nodes explored *)
  proved_optimal : bool;  (** false if the node budget ran out *)
}

val solve : ?node_limit:int -> Instance.t -> outcome
(** @raise Simulate.Internal_error on infeasible/unbounded models (a bug). *)
