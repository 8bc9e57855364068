(* Small exact 0-1 integer programming by branch and bound over the hybrid
   LP solver.

   Used by the reproduction to compute *certified optimal integral
   synchronized schedules*: the Section-3 rounding pipeline is proved to
   match the fractional optimum, and this solver provides an independent
   integral witness to compare against (see {!Sync_ilp} and the rounding
   tests).  Minimization only; branching on the most
   fractional binary variable; depth-first with best-first tie-breaking on
   the relaxation bound.

   By default nodes are solved with the sparse revised simplex
   ({!Revised.solve_with_basis}) and every child is warm-started from its
   parent's optimal basis: a fixing row [x_v = 0/1] is an equality, so it
   adds no slack column and the parent's standard-form column layout is a
   prefix of the child's — the parent basis extended with the new row's
   artificial is a valid warm basis for the child. *)

type outcome = {
  result : Lp_problem.result;
  nodes_explored : int;
  proved_optimal : bool;  (* false if the node budget was exhausted *)
}

exception Unbounded_relaxation of { depth : int; nodes_explored : int }
(* A bounded 0-1 program's relaxation can only be unbounded through
   unbounded continuous variables: a modelling error, reported as a typed
   error instead of escaping the solver as a raw [Failure]. *)

let is_integral01 (v : Rat.t) = Rat.is_zero v || Rat.equal v Rat.one

(* Distance from 1/2; smaller = more fractional. *)
let fractionality (v : Rat.t) = Rat.abs (Rat.sub v Rat.half)

let solve ?(binary : int list option) ?(node_limit = 5000)
    ?(solver : (Lp_problem.t -> Lp_problem.result) option) (p : Lp_problem.t) : outcome =
  let binary =
    match binary with Some l -> l | None -> List.init p.Lp_problem.num_vars (fun i -> i)
  in
  let binary_set = Array.make p.Lp_problem.num_vars false in
  List.iter (fun v -> binary_set.(v) <- true) binary;
  let incumbent : (Rat.t * Rat.t array) option ref = ref None in
  let nodes = ref 0 in
  let exhausted = ref false in
  let better obj = match !incumbent with None -> true | Some (best, _) -> Rat.lt obj best in
  let fix_row v value =
    { Lp_problem.coeffs = [ (v, Rat.one) ];
      relation = Lp_problem.Eq;
      rhs = (if value then Rat.one else Rat.zero) }
  in
  (* Solve one node.  [rows_rev] is the node's full row list, reversed, so
     each fixing row is appended *last* (keeping the parent's column
     layout a prefix of the child's, which is what makes [warm] valid). *)
  let node_solve rows_rev warm : Lp_problem.result * int array option =
    let prob = { p with Lp_problem.rows = List.rev rows_rev } in
    match solver with
    | Some f -> (f prob, None)
    | None ->
      let { Revised.result; basis } = Revised.solve_with_basis ?warm prob in
      (result, basis)
  in
  let rec branch rows_rev depth warm =
    if !nodes >= node_limit then exhausted := true
    else begin
      incr nodes;
      match node_solve rows_rev warm with
      | Lp_problem.Infeasible, _ -> ()
      | Lp_problem.Unbounded, _ ->
        raise (Unbounded_relaxation { depth; nodes_explored = !nodes })
      | Lp_problem.Optimal { objective_value; values }, basis ->
        if not (better objective_value) then () (* bound: cannot improve *)
        else begin
          (* Most fractional binary variable. *)
          let best_var = ref (-1) in
          let best_frac = ref Rat.one in
          Array.iteri
            (fun v x ->
               if binary_set.(v) && not (is_integral01 x) then begin
                 let fr = fractionality x in
                 if Rat.lt fr !best_frac then begin
                   best_frac := fr;
                   best_var := v
                 end
               end)
            values;
          if !best_var < 0 then
            (* Integral on all binaries: new incumbent. *)
            incumbent := Some (objective_value, values)
          else begin
            let v = !best_var in
            (* Both children warm-start from this node's basis: the branch
               variable is fractional, hence basic here, and phase 1 only
               has the one fresh artificial to drive out. *)
            let warm_child =
              match basis with None -> None | Some b -> Some (Array.append b [| -1 |])
            in
            (* Explore the side the relaxation leans towards first. *)
            let first = Rat.ge values.(v) Rat.half in
            branch (fix_row v first :: rows_rev) (depth + 1) warm_child;
            branch (fix_row v (not first) :: rows_rev) (depth + 1) warm_child
          end
        end
    end
  in
  branch (List.rev p.Lp_problem.rows) 0 None;
  let result =
    match !incumbent with
    | Some (objective_value, values) -> Lp_problem.Optimal { objective_value; values }
    | None -> Lp_problem.Infeasible
  in
  { result; nodes_explored = !nodes; proved_optimal = not !exhausted }
