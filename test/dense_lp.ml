(* Dense exact two-phase simplex: the reference solver the LP tests
   compare {!Revised} against.

   A full rational tableau with its own standardization (one slack or
   surplus column per inequality, rows negated to a non-negative right-hand
   side, one artificial per row without a ready slack), Dantzig pricing,
   and a switch to Bland's rule after a run of degenerate pivots, which
   guarantees termination.  It shares no code with {!Revised} beyond
   {!Lp_problem} and {!Rat}, and writes no {!Simplex.stats} counter, so a
   test's solve counts and pivot pins see only the solver under test.
   Every pivot costs O(rows x cols): keep it to a few hundred rows. *)

module P = Lp_problem

(* Standard form: minimize c.x subject to A x = b, x >= 0, b >= 0, where
   columns [0, nstruct) are the original variables and the rest are
   slack/surplus columns. *)
type standard = {
  nrows : int;
  nstruct : int;
  ncols : int;  (* nstruct + #slack/surplus *)
  matrix : Rat.t array array;  (* nrows x ncols *)
  srhs : Rat.t array;
  scost : Rat.t array;  (* length ncols; minimization *)
  slack_basis : int array;  (* per row: ready-made basic column, or -1 *)
  flip_objective : bool;
}

let standardize (p : P.t) : standard =
  let rows = Array.of_list p.P.rows in
  let nrows = Array.length rows in
  let n_slack = Array.fold_left (fun acc r -> match r.P.relation with P.Eq -> acc | _ -> acc + 1) 0 rows in
  let nstruct = p.P.num_vars in
  let ncols = nstruct + n_slack in
  let matrix = Array.init nrows (fun _ -> Array.make ncols Rat.zero) in
  let srhs = Array.make nrows Rat.zero in
  let slack_basis = Array.make nrows (-1) in
  let next_slack = ref nstruct in
  Array.iteri
    (fun i r ->
       let flip = Rat.sign r.P.rhs < 0 in
       let adjust c = if flip then Rat.neg c else c in
       (* Accumulate, don't overwrite: rows built outside [P.Builder] may
          mention the same variable more than once. *)
       List.iter (fun (v, c) -> matrix.(i).(v) <- Rat.add matrix.(i).(v) (adjust c)) r.P.coeffs;
       srhs.(i) <- adjust r.P.rhs;
       let relation =
         match (r.P.relation, flip) with
         | P.Eq, _ -> P.Eq
         | P.Le, false | P.Ge, true -> P.Le
         | P.Ge, false | P.Le, true -> P.Ge
       in
       match relation with
       | P.Le ->
         let s = !next_slack in
         incr next_slack;
         matrix.(i).(s) <- Rat.one;
         slack_basis.(i) <- s
       | P.Ge ->
         let s = !next_slack in
         incr next_slack;
         matrix.(i).(s) <- Rat.minus_one
       | P.Eq -> ())
    rows;
  let flip_objective = p.P.direction = P.Maximize in
  let scost = Array.make ncols Rat.zero in
  List.iter
    (fun (v, c) -> scost.(v) <- Rat.add scost.(v) (if flip_objective then Rat.neg c else c))
    p.P.objective;
  { nrows; nstruct; ncols; matrix; srhs; scost; slack_basis; flip_objective }

let lt0 x = Rat.sign x < 0
let gt0 x = Rat.sign x > 0

(* Pivot the tableau (rows plus the cost row) on (prow, pcol). *)
let pivot tableau cost basis prow pcol width =
  let prow_arr = tableau.(prow) in
  let pv = prow_arr.(pcol) in
  if not (Rat.equal pv Rat.one) then
    for j = 0 to width - 1 do
      if not (Rat.is_zero prow_arr.(j)) then prow_arr.(j) <- Rat.div prow_arr.(j) pv
    done;
  prow_arr.(pcol) <- Rat.one;
  let eliminate row =
    let f = row.(pcol) in
    if not (Rat.is_zero f) then begin
      for j = 0 to width - 1 do
        if not (Rat.is_zero prow_arr.(j)) then row.(j) <- Rat.sub row.(j) (Rat.mul f prow_arr.(j))
      done;
      row.(pcol) <- Rat.zero
    end
  in
  Array.iteri (fun i row -> if i <> prow then eliminate row) tableau;
  eliminate cost;
  basis.(prow) <- pcol

exception Iteration_limit

(* Run the simplex loop to optimality on the current canonical tableau.
   [banned.(j)] excludes column j from entering (the artificials in phase
   2).  Dantzig's rule first; after [stall_threshold] pivots with no
   strict improvement of the objective (the rhs entry of the cost row),
   Bland's rule, which cannot cycle, until the objective improves. *)
let optimize tableau cost basis banned ncols_total =
  let nrows = Array.length tableau in
  let width = ncols_total + 1 in
  let rhs_ix = ncols_total in
  let max_iters = (50 * (nrows + ncols_total)) + 1000 in
  let stall_threshold = (3 * nrows) + 50 in
  let rec loop iters stalled bland =
    if iters > max_iters then raise Iteration_limit;
    let entering = ref (-1) in
    (if bland then begin
       try
         for j = 0 to ncols_total - 1 do
           if (not banned.(j)) && lt0 cost.(j) then begin
             entering := j;
             raise Exit
           end
         done
       with Exit -> ()
     end
     else begin
       let best = ref Rat.zero in
       for j = 0 to ncols_total - 1 do
         if (not banned.(j)) && Rat.compare cost.(j) !best < 0 then begin
           best := cost.(j);
           entering := j
         end
       done
     end);
    if !entering < 0 then `Optimal
    else begin
      let j = !entering in
      (* Ratio test: min rhs/entry over entry > 0; ties to the smaller
         basis index (pairs with Bland for termination). *)
      let leave = ref (-1) in
      let best_ratio = ref Rat.zero in
      for i = 0 to nrows - 1 do
        let entry = tableau.(i).(j) in
        if gt0 entry then begin
          let ratio = Rat.div tableau.(i).(rhs_ix) entry in
          if !leave < 0
          || Rat.compare ratio !best_ratio < 0
          || (Rat.compare ratio !best_ratio = 0 && basis.(i) < basis.(!leave))
          then begin
            leave := i;
            best_ratio := ratio
          end
        end
      done;
      if !leave < 0 then `Unbounded
      else begin
        let obj_before = cost.(rhs_ix) in
        pivot tableau cost basis !leave j width;
        if not (Rat.equal cost.(rhs_ix) obj_before) then loop (iters + 1) 0 false
        else begin
          let stalled = stalled + 1 in
          loop (iters + 1) stalled (bland || stalled > stall_threshold)
        end
      end
    end
  in
  loop 0 0 false

(* The reduced-cost row for cost vector [c] on the canonical tableau:
   cost.(j) = c_j - sum_i c_{basis i} T_ij, and the negated objective
   value in the rhs slot. *)
let reduced_costs tableau basis (c : Rat.t array) ncols_total =
  let width = ncols_total + 1 in
  let cost = Array.make width Rat.zero in
  Array.blit c 0 cost 0 (Array.length c);
  Array.iteri
    (fun i row ->
       let cb = if basis.(i) < Array.length c then c.(basis.(i)) else Rat.zero in
       if not (Rat.is_zero cb) then
         for j = 0 to width - 1 do
           if not (Rat.is_zero row.(j)) then cost.(j) <- Rat.sub cost.(j) (Rat.mul cb row.(j))
         done)
    tableau;
  cost

let solve (p : P.t) : P.result =
  let std = standardize p in
  let nrows = std.nrows in
  let n_artificial = Array.fold_left (fun acc s -> if s < 0 then acc + 1 else acc) 0 std.slack_basis in
  let ncols_total = std.ncols + n_artificial in
  let width = ncols_total + 1 in
  let rhs_ix = ncols_total in
  let tableau =
    Array.init nrows (fun i ->
        let row = Array.make width Rat.zero in
        Array.blit std.matrix.(i) 0 row 0 std.ncols;
        row.(rhs_ix) <- std.srhs.(i);
        row)
  in
  let basis = Array.make nrows (-1) in
  let next_art = ref std.ncols in
  Array.iteri
    (fun i s ->
       if s >= 0 then basis.(i) <- s
       else begin
         let a = !next_art in
         incr next_art;
         tableau.(i).(a) <- Rat.one;
         basis.(i) <- a
       end)
    std.slack_basis;
  let banned = Array.make ncols_total false in
  try
    if n_artificial > 0 then begin
      (* Phase 1: minimize the sum of the artificials. *)
      let c1 = Array.init ncols_total (fun j -> if j >= std.ncols then Rat.one else Rat.zero) in
      let cost = reduced_costs tableau basis c1 ncols_total in
      (match optimize tableau cost basis banned ncols_total with
       | `Unbounded -> assert false (* bounded below by 0 *)
       | `Optimal -> if gt0 (Rat.neg cost.(rhs_ix)) then raise Exit (* infeasible *));
      (* Drive the artificials out of the basis where possible (a row
         with no structural or slack entry is redundant, and its
         artificial stays basic at 0); then ban them. *)
      for i = 0 to nrows - 1 do
        if basis.(i) >= std.ncols then begin
          let found = ref (-1) in
          (try
             for j = 0 to std.ncols - 1 do
               if not (Rat.is_zero tableau.(i).(j)) then begin
                 found := j;
                 raise Exit
               end
             done
           with Exit -> ());
          if !found >= 0 then pivot tableau (Array.make width Rat.zero) basis i !found width
        end
      done;
      Array.fill banned std.ncols n_artificial true
    end;
    (* Phase 2. *)
    let c2 = Array.init ncols_total (fun j -> if j < std.ncols then std.scost.(j) else Rat.zero) in
    let cost = reduced_costs tableau basis c2 ncols_total in
    match optimize tableau cost basis banned ncols_total with
    | `Unbounded -> P.Unbounded
    | `Optimal ->
      let values = Array.make std.nstruct Rat.zero in
      Array.iteri (fun i b -> if b < std.nstruct then values.(b) <- tableau.(i).(rhs_ix)) basis;
      let obj = Rat.neg cost.(rhs_ix) in
      P.Optimal { objective_value = (if std.flip_objective then Rat.neg obj else obj); values }
  with Exit -> P.Infeasible
