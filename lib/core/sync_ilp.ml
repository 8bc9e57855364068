(* Certified optimal integral synchronized schedules, via 0-1 branch and
   bound on the Section-3 program.

   This is the reproduction's independent witness for the rounding
   pipeline: Theorem 4 says the rounded schedule matches the *fractional*
   optimum, so rounded stall = ILP stall = LP stall must hold whenever the
   instance is in reach of branch and bound.  It is exponential in the
   worst case and intended for small instances and ablation benches. *)

type outcome = {
  stall : Rat.t;  (* integral, but kept as a rational for comparisons *)
  nodes : int;
  proved_optimal : bool;
}

let solve ?(node_limit = 2000) (inst : Instance.t) : outcome =
  let built = Sync_lp.build inst in
  (* Pool variables range over [0, n_sinit], and their integrality follows
     from the balance rows once the f/e/x variables are integral, so
     branch and bound gets the explicit 0-1 list: every other variable, in
     ascending order. *)
  let binary = ref [] in
  for v = Array.length built.Sync_lp.kind_of - 1 downto 0 do
    match built.Sync_lp.kind_of.(v) with Sync_lp.Pool _ -> () | _ -> binary := v :: !binary
  done;
  let o =
    try Ilp.solve ~binary:!binary ~node_limit built.Sync_lp.problem with
    | Ilp.Unbounded_relaxation { depth; _ } ->
      Simulate.internal_error ~component:"Sync_ilp"
        "unbounded relaxation at depth %d (model bug)" depth
    | Bigint.Does_not_fit { digits; bits } ->
      Simulate.internal_error ~component:"Sync_ilp"
        "native-int overflow in exact arithmetic: %s (%d bits)" digits bits
    | Rat.Not_an_integer { value } ->
      Simulate.internal_error ~component:"Sync_ilp"
        "expected integral value, got %s (model bug)" value
  in
  match o.Ilp.result with
  | Lp_problem.Optimal { objective_value; _ } ->
    { stall = objective_value; nodes = o.Ilp.nodes_explored; proved_optimal = o.Ilp.proved_optimal }
  | Lp_problem.Infeasible -> Simulate.internal_error ~component:"Sync_ilp" "infeasible (model bug)"
  | Lp_problem.Unbounded -> Simulate.internal_error ~component:"Sync_ilp" "unbounded (model bug)"
