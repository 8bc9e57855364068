(** Small exact 0-1 integer programming by branch and bound over the
    hybrid LP solver (minimization).

    Branches on the most fractional binary variable, exploring the side the
    relaxation leans towards first; prunes on the exact relaxation bound.
    Nodes are solved with the sparse revised simplex and warm-started from
    the parent's optimal basis.  Used to compute certified optimal integral
    synchronized schedules ({!Sync_ilp}) as an independent witness for the
    rounding pipeline. *)

type outcome = {
  result : Lp_problem.result;
  nodes_explored : int;
  proved_optimal : bool;  (** false iff the node budget was exhausted *)
}

exception Unbounded_relaxation of { depth : int; nodes_explored : int }
(** A relaxation was unbounded — a modelling error for 0-1 programs
    (some continuous variable is missing an upper bound).  [depth] is the
    number of branch fixings in effect at the offending node (0 = root). *)

val solve :
  ?binary:int list ->
  ?node_limit:int ->
  ?solver:(Lp_problem.t -> Lp_problem.result) ->
  Lp_problem.t ->
  outcome
(** [binary] defaults to all variables (each must carry a [<= 1] row in
    the problem); [node_limit] defaults to 5000; [solver] overrides the
    node LP solver (disabling warm starts), and defaults to
    {!Revised.solve_with_basis} with parent-basis warm starts.
    @raise Unbounded_relaxation if a node's relaxation is unbounded. *)
