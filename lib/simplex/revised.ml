(* Sparse revised simplex with warm starts: the library's one LP solver.

   A two-phase primal simplex — Dantzig pricing with the Bland
   anti-cycling switch — over sparse column storage with a maintained
   product-form basis factorization (an eta file), instead of dense
   tableau pivoting.  Each iteration costs O(nnz(basis) + priced columns)
   rather than O(rows x cols), which is what lets the synchronized
   parallel-disk LPs ({!Sync_lp}) scale to thousands of candidate
   intervals and D >> 2 disks.  The tests check it against a dense exact
   tableau kept under test/ as the reference solver.

   Pricing reads reduced costs kept current from pivot to pivot rather
   than recomputed.  After a pivot on row r that entered column q with
   reduced cost d_q, the pivot row rho_r = e_r^T B^-1 of the new basis
   comes from a hypersparse BTRAN ({!Lp_field.rho_hyper}), which visits
   only the etas that row reaches, and then y += d_q rho_r and
   d_j -= d_q rho_r^T a_j over the non-basic columns, through a row-wise
   copy of the columns.  A pivot thus costs what its pivot row costs,
   not a full BTRAN plus a chunk of dot products.  The duals and every
   reduced cost are refreshed (a full BTRAN, then a full pricing) at
   each refactorization, every 128 pivots, and at each phase start, and
   a pricing sweep that finds nothing on updated values is repeated on
   fresh ones before it proves optimality.  Over rationals the updated
   values equal the fresh ones exactly, so the exact solver's path is
   unchanged.  Over floats they differ from fresh ones only by rounding;
   on the acceptance LP of test_lp_scale.ml that moves no comparison
   across the 1e-9 tolerance, and its pinned 5,886-pivot path and final
   basis are unchanged.

   [solve_lp] runs two tracks: solve over floats, re-factorize and verify
   the final basis over exact rationals (primal + dual feasibility), and
   fall back to the pure exact revised solver on any doubt.  Bland's rule
   makes the exact track terminate, so reaching its iteration cap is a
   solver bug and raises [Solver_failure].  [solve_with_basis]
   additionally accepts and returns bases, so branch-and-bound
   ({!Ilp.solve}) can warm-start every child node from its parent's
   optimal basis instead of re-solving from scratch. *)

(* ------------------------------------------------------------------ *)
(* Sparse standard form: minimize c.x s.t. A x = b, x >= 0, b >= 0.
   Columns [0, s_nstruct) are the original variables, the rest
   slack/surplus; artificial columns are implicit (the artificial for row
   i is addressed as [s_ncols + i] and never materialized). *)

type sparse_col = {
  cri : int array;  (* row indices, ascending *)
  crv : Rat.t array;  (* matching nonzero coefficients *)
}

type sparse_standard = {
  s_nrows : int;
  s_nstruct : int;
  s_ncols : int;  (* nstruct + #slack/surplus *)
  s_cols : sparse_col array;  (* length s_ncols *)
  s_rhs : Rat.t array;
  s_cost : Rat.t array;  (* length s_ncols; minimization *)
  s_slack_basis : int array;  (* per row: ready-made basic column, or -1 *)
  s_flip_objective : bool;
}

let sparse_standardize (p : Lp_problem.t) : sparse_standard =
  let rows = Array.of_list p.Lp_problem.rows in
  let nrows = Array.length rows in
  let n_slack =
    Array.fold_left
      (fun acc r -> match r.Lp_problem.relation with Lp_problem.Eq -> acc | _ -> acc + 1)
      0 rows
  in
  let nstruct = p.Lp_problem.num_vars in
  let ncols = nstruct + n_slack in
  (* Per-column (row, coeff) buffers, reversed; rows are visited in order so
     reversing at the end yields ascending row indices. *)
  let buf : (int * Rat.t) list array = Array.make ncols [] in
  let srhs = Array.make nrows Rat.zero in
  let slack_basis = Array.make nrows (-1) in
  let next_slack = ref nstruct in
  let merged = Hashtbl.create 16 in
  Array.iteri
    (fun i r ->
       (* Normalize to rhs >= 0 by negating the whole row if needed. *)
       let flip = Rat.sign r.Lp_problem.rhs < 0 in
       let adjust c = if flip then Rat.neg c else c in
       (* Accumulate duplicate variable keys: rows built outside
          [Lp_problem.Builder] may mention a variable more than once. *)
       Hashtbl.reset merged;
       List.iter
         (fun (v, c) ->
            let prev = try Hashtbl.find merged v with Not_found -> Rat.zero in
            Hashtbl.replace merged v (Rat.add prev (adjust c)))
         r.Lp_problem.coeffs;
       Hashtbl.iter
         (fun v c -> if not (Rat.is_zero c) then buf.(v) <- (i, c) :: buf.(v))
         merged;
       srhs.(i) <- adjust r.Lp_problem.rhs;
       let relation =
         match (r.Lp_problem.relation, flip) with
         | Lp_problem.Eq, _ -> Lp_problem.Eq
         | Lp_problem.Le, false | Lp_problem.Ge, true -> Lp_problem.Le
         | Lp_problem.Ge, false | Lp_problem.Le, true -> Lp_problem.Ge
       in
       match relation with
       | Lp_problem.Le ->
         let s = !next_slack in
         incr next_slack;
         buf.(s) <- [ (i, Rat.one) ];
         slack_basis.(i) <- s
       | Lp_problem.Ge ->
         let s = !next_slack in
         incr next_slack;
         buf.(s) <- [ (i, Rat.minus_one) ]
       | Lp_problem.Eq -> ())
    rows;
  let flip_objective = p.Lp_problem.direction = Lp_problem.Maximize in
  let scost = Array.make ncols Rat.zero in
  List.iter
    (fun (v, c) -> scost.(v) <- Rat.add scost.(v) (if flip_objective then Rat.neg c else c))
    p.Lp_problem.objective;
  let cols =
    Array.map
      (fun l ->
         let l = List.rev l in
         { cri = Array.of_list (List.map fst l); crv = Array.of_list (List.map snd l) })
      buf
  in
  { s_nrows = nrows; s_nstruct = nstruct; s_ncols = ncols; s_cols = cols; s_rhs = srhs;
    s_cost = scost; s_slack_basis = slack_basis; s_flip_objective = flip_objective }

exception Singular_basis

let stats = Simplex.stats

(* ------------------------------------------------------------------ *)

module Make (F : Lp_field.FIELD) = struct
  type outcome =
    | Solved of {
        values : F.t array;  (* structural variables only *)
        objective : F.t;  (* in the original problem's direction *)
        basis : int array;  (* standard-form column per row; s_ncols + i = row i's artificial *)
        nstruct : int;
      }
    | Infeasible
    | Unbounded

  exception Iteration_limit

  let lt0 x = F.compare x F.zero < 0
  let gt0 x = F.compare x F.zero > 0

  type ctx = {
    m : int;
    ncols : int;
    total : int;  (* ncols + m; columns >= ncols are artificials *)
    cols : (int array * F.t array) array;  (* the standardized columns, in F *)
    b : F.t array;  (* standardized rhs, in F *)
    basis : int array;  (* column id per row position *)
    in_basis : bool array;  (* length total *)
    art_sign : F.t array;  (* artificial column of row i is art_sign.(i) * e_i *)
    x_b : F.t array;  (* basic values, aligned with [basis] positions *)
    etas : F.t Lp_field.etas;  (* the product-form inverse *)
    (* The last factorization's row index: its etas' pivot and off-pivot
       rows, and the heap workspace of the hypersparse FTRAN and BTRAN. *)
    ix : Lp_field.rowix;
    scratch : F.t array;  (* FTRAN workspace, length m *)
    (* Shared sparsity tracker for tracked workspaces.  At most one tracked
       vector is live at a time; it must be cleared with [clear_tracked]
       before the next tracked load. *)
    tr : Lp_field.tracker;
    (* [factorize]'s column order, its sort key, and the pivoted rows and
       their columns, reused by every factorization. *)
    order : int array;
    nnz_key : int array;
    row_done : bool array;
    new_basis : int array;
  }

  let make_ctx (std : sparse_standard) : ctx =
    let m = std.s_nrows in
    { m;
      ncols = std.s_ncols;
      total = std.s_ncols + m;
      cols = Array.map (fun c -> (c.cri, Array.map F.of_rat c.crv)) std.s_cols;
      b = Array.map F.of_rat std.s_rhs;
      basis = Array.make m (-1);
      in_basis = Array.make (std.s_ncols + m) false;
      art_sign = Array.make m F.one;
      x_b = Array.make m F.zero;
      etas = Lp_field.create_etas F.zero;
      ix = Lp_field.rowix m;
      scratch = Array.make m F.zero;
      tr = Lp_field.tracker m;
      order = Array.make m 0;
      nnz_key = Array.make m 0;
      row_done = Array.make m false;
      new_basis = Array.make m (-1) }

  let col_nnz ctx j = if j < ctx.ncols then Array.length (fst ctx.cols.(j)) else 1

  (* Tracked vectors: ctx.tr holds a superset of the nonzero positions of
     [x], so downstream scans are O(fill) instead of O(m).  Positions only
     become nonzero through tracked writes; [clear_tracked] re-zeroes
     exactly the written positions. *)
  let clear_tracked ctx (x : F.t array) = Lp_field.clear_tracked F.zero x ctx.tr

  (* Load column j into the all-zero tracked vector [x]. *)
  let load_col_t ctx (x : F.t array) j =
    if j < ctx.ncols then begin
      let ri, rv = ctx.cols.(j) in
      F.load_tracked ri rv x ctx.tr
    end
    else begin
      let i = j - ctx.ncols in
      Lp_field.touch ctx.tr i;
      x.(i) <- ctx.art_sign.(i)
    end

  (* FTRAN on a tracked vector: hypersparse over the last factorization's
     etas, then every update eta in order.  The same etas apply, in the
     same order, as in a full tracked FTRAN. *)
  let ftran_t ctx (x : F.t array) =
    let f = ctx.etas in
    Lp_field.ftran_hyper F.eta_tracked f ctx.ix x ctx.tr;
    for t = ctx.ix.Lp_field.n_fact to f.Lp_field.n - 1 do
      F.eta_tracked f t x ctx.tr
    done

  (* Rebuild the eta file from the current basis set, index it, and
     recompute x_b.  Columns are pivoted sparsest-first, preferring exact
     +-1 pivots (cheap rationals, stable floats); basis positions are
     permuted accordingly.
     @raise Singular_basis if the basis columns do not span. *)
  let factorize ctx =
    stats.Simplex.refactorizations <- stats.Simplex.refactorizations + 1;
    let m = ctx.m and f = ctx.etas and ix = ctx.ix and tr = ctx.tr in
    f.Lp_field.n <- 0;
    Array.fill ix.Lp_field.eta_of_row 0 m (-1);
    Array.fill ctx.row_done 0 m false;
    let order = ctx.order and key = ctx.nnz_key in
    for p = 0 to m - 1 do
      order.(p) <- p;
      key.(p) <- col_nnz ctx ctx.basis.(p)
    done;
    Array.sort (fun a b -> compare key.(a) key.(b)) order;
    for k = 0 to m - 1 do
      let j = ctx.basis.(order.(k)) in
      load_col_t ctx ctx.scratch j;
      (* The etas pushed so far all have distinct pivot rows. *)
      Lp_field.ftran_hyper F.eta_tracked f ix ctx.scratch tr;
      let r = F.choose_pivot ctx.scratch tr ctx.row_done in
      if r < 0 then begin
        clear_tracked ctx ctx.scratch;
        raise Singular_basis
      end;
      (* Unit pivots with no off-pivot fill (slack/artificial columns not
         yet touched by fill-in) are identity etas: skip them, so the eta
         file length tracks the structural basis content, not m.
         FTRAN/BTRAN cost scales with the file length, so this is the
         difference between O(nnz) and O(m) iterations. *)
      if F.push_tracked f ~skip_identity:true r ctx.scratch tr then
        ix.Lp_field.eta_of_row.(r) <- f.Lp_field.n - 1;
      clear_tracked ctx ctx.scratch;
      ctx.row_done.(r) <- true;
      ctx.new_basis.(r) <- j
    done;
    Array.blit ctx.new_basis 0 ctx.basis 0 m;
    Lp_field.index_factorization f ix;
    Array.blit ctx.b 0 ctx.x_b 0 m;
    F.ftran f ctx.x_b

  (* ---------------------------------------------------------------- *)

  let solve_std ?(warm : int array option) ?(stall_threshold : int option)
      (std : sparse_standard) : outcome =
    let ctx = make_ctx std in
    let m = ctx.m in
    let ncols = ctx.ncols in
    let install (w : int array) =
      for i = 0 to m - 1 do
        ctx.basis.(i) <- (if w.(i) = -1 then ncols + i else w.(i));
        ctx.art_sign.(i) <- F.one
      done;
      Array.fill ctx.in_basis 0 ctx.total false;
      Array.iter (fun j -> ctx.in_basis.(j) <- true) ctx.basis
    in
    let init_cold () =
      install
        (Array.init m (fun i -> if std.s_slack_basis.(i) >= 0 then std.s_slack_basis.(i) else -1));
      (* The cold basis is diagonal (slack or artificial per row): it
         cannot be singular. *)
      factorize ctx
    in
    (* A warm basis is one column id per row: a standard-form column in
       [0, ncols), an artificial [ncols + i], or -1 meaning "this row's
       artificial".  It is rejected (falling back to a cold start) when it
       is malformed, singular, or primal infeasible beyond repair.  An
       artificial basic at a *negative* value is repaired by flipping the
       sign of that artificial column, which negates exactly that basic
       value and nothing else (the artificial is a unit column). *)
    let warm_shape_ok (w : int array) =
      Array.length w = m
      && (let seen = Array.make ctx.total false in
          let ok = ref true in
          Array.iteri
            (fun i j ->
               let j = if j = -1 then ncols + i else j in
               if j < 0 || j >= ctx.total || seen.(j) then ok := false else seen.(j) <- true)
            w;
          !ok)
    in
    let try_warm (w : int array) =
      install w;
      match factorize ctx with
      | exception Singular_basis -> false
      | () ->
        let structural_bad = ref false in
        let flipped = ref false in
        for i = 0 to m - 1 do
          if lt0 ctx.x_b.(i) then begin
            if ctx.basis.(i) >= ncols then begin
              ctx.art_sign.(ctx.basis.(i) - ncols) <- F.neg F.one;
              flipped := true
            end
            else structural_bad := true
          end
        done;
        if !structural_bad then false
        else if not !flipped then true
        else begin
          match factorize ctx with
          | exception Singular_basis -> false
          | () ->
            (* The sign flips negate exactly the flipped artificials'
               values; anything still negative means the warm basis is
               unusable. *)
            let ok = ref true in
            for i = 0 to m - 1 do
              if lt0 ctx.x_b.(i) then ok := false
            done;
            !ok
        end
    in
    (match warm with
     | Some w when warm_shape_ok w && try_warm w ->
       stats.Simplex.warm_accepts <- stats.Simplex.warm_accepts + 1
     | Some _ ->
       stats.Simplex.warm_rejects <- stats.Simplex.warm_rejects + 1;
       init_cold ()
     | None -> init_cold ());
    (* ---------------- pricing and pivoting ---------------- *)
    (* Duals [y] and the reduced costs [d] of the columns [0, ncols) are
       kept current from pivot to pivot: [refresh] recomputes them (a full
       BTRAN of the basic costs, then every reduced cost), and each pivot
       that does not refactorize updates them from its pivot row.  [fresh]
       says no update has happened since the last refresh. *)
    let cost = Array.make ctx.total F.zero in
    let y = Array.make m F.zero in
    let d = Array.make ncols F.zero in
    let fresh = ref false in
    let refresh () =
      F.gather y ctx.basis cost;
      F.btran ctx.etas y;
      F.reduced_costs cost ctx.cols y ctx.in_basis d;
      fresh := true
    in
    let wcol = Array.make m F.zero in
    let rho = Array.make m F.zero in
    let rows = Lp_field.rows_of_cols m ctx.cols F.zero in
    let alpha = Array.make ncols F.zero in
    let atr = Lp_field.tracker ncols in
    (* After a pivot on row r that entered a column with reduced cost dq:
       rho_r = e_r^T B^-1 of the new basis, by hypersparse BTRAN; then
       y <- y + dq rho_r and d_j <- d_j - dq rho_r^T a_j for the
       non-basic columns (the entering one is basic now, and the leaving
       one was zeroed by the caller). *)
    let update_from_row r dq =
      Lp_field.touch ctx.tr r;
      rho.(r) <- F.one;
      Lp_field.rho_hyper F.btran_eta_tracked ctx.etas ctx.ix rho ctx.tr;
      F.update_duals dq rho ctx.tr y rows ctx.in_basis d alpha atr;
      clear_tracked ctx rho;
      fresh := false
    in
    (* Dantzig with partial pricing: scan a wrap-around chunk of columns
       from where the last scan stopped, returning the most negative
       reduced cost seen; a full fruitless sweep proves optimality once
       the reduced costs are fresh.  Bland: first non-basic column (in
       index order) with negative reduced cost.  Cannot cycle; artificials
       are excluded by construction. *)
    let price_from = ref 0 in
    let chunk = max 512 (ncols / 8) in
    let price bland =
      if bland then F.price_bland d ctx.in_basis
      else F.price_dantzig d ctx.in_basis chunk price_from
    in
    (* Ratio test over the tracked wcol = B^-1 A_j.  Ties go to the larger
       pivot magnitude under Dantzig (degenerate ties are the common case
       and a large pivot keeps the eta file well conditioned in float), and
       to the smaller basis column id under Bland (required for the
       termination argument).  Returns the leaving position. *)
    let ratio_test bland = F.ratio_test wcol ctx.tr ctx.x_b ctx.basis bland in
    (* Replace basis position [leave] by column j; the tracked wcol holds
       B^-1 A_j and is consumed (cleared).  Returns the primal step theta. *)
    let do_pivot leave j =
      let theta = F.pivot_primal ctx.x_b wcol ctx.tr leave in
      ignore (F.push_tracked ctx.etas ~skip_identity:false leave wcol ctx.tr);
      clear_tracked ctx wcol;
      ctx.in_basis.(ctx.basis.(leave)) <- false;
      ctx.in_basis.(j) <- true;
      ctx.basis.(leave) <- j;
      theta
    in
    let refactor_every = 128 in
    let max_iters = (50 * (m + ncols)) + 1000 in
    let stall_threshold =
      match stall_threshold with Some t -> t | None -> (3 * m) + 50
    in
    let optimize () =
      price_from := 0;
      refresh ();
      let rec loop iters stalled bland since_refactor =
        if iters > max_iters then raise Iteration_limit;
        let j = price bland in
        let j =
          if j < 0 && not !fresh then begin
            refresh ();
            price bland
          end
          else j
        in
        if j < 0 then `Optimal
        else begin
          load_col_t ctx wcol j;
          ftran_t ctx wcol;
          let leave = ratio_test bland in
          if leave < 0 then begin
            clear_tracked ctx wcol;
            `Unbounded
          end
          else begin
            let dq = d.(j) in
            let left = ctx.basis.(leave) in
            let theta = do_pivot leave j in
            stats.Simplex.pivots <- stats.Simplex.pivots + 1;
            let since_refactor = since_refactor + 1 in
            let since_refactor =
              if since_refactor >= refactor_every then begin
                (* Numerical drift can leave the float basis unsalvageable;
                   surface it as an iteration failure so the caller's exact
                   fallback takes over. *)
                (match factorize ctx with
                 | () -> ()
                 | exception Singular_basis -> raise Iteration_limit);
                refresh ();
                0
              end
              else begin
                d.(j) <- F.zero;
                if left < ncols then d.(left) <- F.zero;
                update_from_row leave dq;
                since_refactor
              end
            in
            (* The entering reduced cost is strictly negative, so the
               objective strictly improves iff the step is nonzero. *)
            if gt0 theta then loop (iters + 1) 0 false since_refactor
            else begin
              stats.Simplex.degenerate_pivots <- stats.Simplex.degenerate_pivots + 1;
              let stalled = stalled + 1 in
              let bland' = bland || stalled > stall_threshold in
              if bland' && not bland then
                stats.Simplex.bland_switches <- stats.Simplex.bland_switches + 1;
              loop (iters + 1) stalled bland' since_refactor
            end
          end
        end
      in
      loop 0 0 false 0
    in
    let exception Infeasible_lp in
    let infeasibility () =
      let s = ref F.zero in
      for i = 0 to m - 1 do
        if ctx.basis.(i) >= ncols then s := F.add !s ctx.x_b.(i)
      done;
      !s
    in
    try
      (* Phase 1: minimize the artificial mass, skipped when the (possibly
         warm) starting basis is already feasible. *)
      if Array.exists (fun j -> j >= ncols) ctx.basis then begin
        if gt0 (infeasibility ()) then begin
          Array.fill cost 0 ctx.total F.zero;
          for j = ncols to ctx.total - 1 do
            cost.(j) <- F.one
          done;
          (match optimize () with
           | `Unbounded ->
             (* Phase 1 is bounded below by 0; float noise only. *)
             raise Iteration_limit
           | `Optimal -> ());
          if gt0 (infeasibility ()) then raise Infeasible_lp
        end;
        (* Drive remaining artificials (basic at ~0) out of the basis where
           a substitute column exists; redundant rows keep theirs.  These
           pivots leave [y] and [d] stale; phase 2 refreshes them. *)
        let exception Found of int in
        for r = 0 to m - 1 do
          if ctx.basis.(r) >= ncols then begin
            Array.fill y 0 m F.zero;
            y.(r) <- F.one;
            F.btran ctx.etas y;
            let found =
              try
                for j = 0 to ncols - 1 do
                  if not ctx.in_basis.(j) then begin
                    let ri, rv = ctx.cols.(j) in
                    let s = ref F.zero in
                    for q = 0 to Array.length ri - 1 do
                      let yi = y.(ri.(q)) in
                      if not (F.is_zero yi) then s := F.add !s (F.mul yi rv.(q))
                    done;
                    if not (F.is_zero !s) then raise (Found j)
                  end
                done;
                -1
              with Found j -> j
            in
            if found >= 0 then begin
              load_col_t ctx wcol found;
              ftran_t ctx wcol;
              ignore (do_pivot r found)
            end
          end
        done
      end;
      (* Phase 2. *)
      Array.fill cost 0 ctx.total F.zero;
      for j = 0 to ncols - 1 do
        let v = std.s_cost.(j) in
        if not (Rat.is_zero v) then cost.(j) <- F.of_rat v
      done;
      (match optimize () with
       | `Unbounded -> Unbounded
       | `Optimal ->
         let values = Array.make std.s_nstruct F.zero in
         Array.iteri
           (fun i bj -> if bj < std.s_nstruct then values.(bj) <- ctx.x_b.(i))
           ctx.basis;
         let obj = ref F.zero in
         for i = 0 to m - 1 do
           let bj = ctx.basis.(i) in
           if bj < ncols && not (Rat.is_zero std.s_cost.(bj)) then
             obj := F.add !obj (F.mul (F.of_rat std.s_cost.(bj)) ctx.x_b.(i))
         done;
         let obj = if std.s_flip_objective then F.neg !obj else !obj in
         Solved
           { values; objective = obj; basis = Array.copy ctx.basis; nstruct = std.s_nstruct })
    with Infeasible_lp -> Infeasible

  let solve ?warm ?stall_threshold (p : Lp_problem.t) : outcome =
    solve_std ?warm ?stall_threshold (sparse_standardize p)

  (* Exact verification of a basis against [std]: factorize, recompute the
     primal/dual solutions and check optimality.  Artificials may sit in
     the basis only at exactly zero (redundant rows); the dual certificate
     then still proves optimality because they carry zero cost and zero
     primal value.  Meaningful for exact fields only. *)
  let check_basis (std : sparse_standard) (given : int array) : (F.t array * F.t) option =
    let m = std.s_nrows in
    let total = std.s_ncols + m in
    if Array.length given <> m then None
    else begin
      let seen = Array.make total false in
      let shape_ok = ref true in
      Array.iter
        (fun j ->
           if j < 0 || j >= total || seen.(j) then shape_ok := false else seen.(j) <- true)
        given;
      if not !shape_ok then None
      else begin
        let ctx = make_ctx std in
        Array.blit given 0 ctx.basis 0 m;
        Array.iter (fun j -> ctx.in_basis.(j) <- true) given;
        match factorize ctx with
        | exception Singular_basis -> None
        | () ->
          let primal_ok = ref true in
          for i = 0 to m - 1 do
            let v = ctx.x_b.(i) in
            if lt0 v then primal_ok := false
            else if ctx.basis.(i) >= std.s_ncols && not (F.is_zero v) then primal_ok := false
          done;
          if not !primal_ok then None
          else begin
            let y = Array.make m F.zero in
            for i = 0 to m - 1 do
              let j = ctx.basis.(i) in
              y.(i) <- (if j < std.s_ncols then F.of_rat std.s_cost.(j) else F.zero)
            done;
            F.btran ctx.etas y;
            let cost = Array.map F.of_rat std.s_cost in
            let dual_ok = ref true in
            (try
               for j = 0 to std.s_ncols - 1 do
                 if (not ctx.in_basis.(j)) && lt0 (F.reduced_cost cost ctx.cols y j) then begin
                   dual_ok := false;
                   raise Exit
                 end
               done
             with Exit -> ());
            if not !dual_ok then None
            else begin
              let values = Array.make std.s_nstruct F.zero in
              Array.iteri
                (fun i j -> if j < std.s_nstruct then values.(j) <- ctx.x_b.(i))
                ctx.basis;
              let obj = ref F.zero in
              for i = 0 to m - 1 do
                let j = ctx.basis.(i) in
                if j < std.s_ncols && not (Rat.is_zero std.s_cost.(j)) then
                  obj := F.add !obj (F.mul (F.of_rat std.s_cost.(j)) ctx.x_b.(i))
              done;
              let obj = if std.s_flip_objective then F.neg !obj else !obj in
              Some (values, obj)
            end
          end
      end
    end
end

module Float_rev = Make (Lp_field.Float_field)
module Rat_rev = Make (Lp_field.Rat_field)

(* ------------------------------------------------------------------ *)
(* Public drivers. *)

type solution = {
  result : Lp_problem.result;
  basis : int array option;  (* standard-form basis of the optimum, if known *)
}

let result_of_rat_outcome (o : Rat_rev.outcome) : Lp_problem.result * int array option =
  match o with
  | Rat_rev.Solved { values; objective; basis; _ } ->
    (Lp_problem.Optimal { objective_value = objective; values }, Some basis)
  | Rat_rev.Infeasible -> (Lp_problem.Infeasible, None)
  | Rat_rev.Unbounded -> (Lp_problem.Unbounded, None)

(* Pure exact revised simplex (no float pass); reference/ablation. *)
let solve_pure (p : Lp_problem.t) : Lp_problem.result =
  fst (result_of_rat_outcome (Rat_rev.solve p))

(* Exact certification of a float basis: verify over rationals, then
   re-check against the original problem (belt and braces). *)
let certify (p : Lp_problem.t) (std : sparse_standard) (basis : int array) :
    Lp_problem.result option =
  match Rat_rev.check_basis std basis with
  | None -> None
  | Some (values, _objective) ->
    (match Lp_problem.check_feasible p values with
     | Error _ -> None
     | Ok () ->
       let objective_value = Lp_problem.objective_value p values in
       Some (Lp_problem.Optimal { objective_value; values }))

exception Solver_failure of { rows : int; cols : int }

let () =
  Printexc.register_printer (function
    | Solver_failure { rows; cols } ->
      Some
        (Printf.sprintf
           "Revised.solve_with_basis: the exact simplex hit its iteration cap (%d rows, %d \
            columns; a solver bug: Bland's rule terminates)"
           rows cols)
    | _ -> None)

(* Registry handles; mutations are gated on [Telemetry.enabled]. *)
let m_solves = Telemetry.counter "revised.solves"
let m_certified = Telemetry.counter "revised.certified"
let m_fallbacks = Telemetry.counter "revised.fallbacks"
let m_pivots = Telemetry.counter "revised.pivots"
let m_degenerate = Telemetry.counter "revised.degenerate_pivots"
let m_bland = Telemetry.counter "revised.bland_switches"
let m_refactorizations = Telemetry.counter "revised.refactorizations"
let m_warm_accepts = Telemetry.counter "revised.warm_accepts"
let m_warm_rejects = Telemetry.counter "revised.warm_rejects"

(* Hybrid exact driver: float revised simplex for speed, exact sparse
   certification, exact revised solver as the fallback (warm-started from
   the float basis when one exists).  Returns the optimal basis so callers
   (branch and bound) can warm-start related solves. *)
let solve_with_basis ?warm (p : Lp_problem.t) : solution =
  let st = stats in
  let pivots0 = st.Simplex.pivots in
  let degenerate0 = st.Simplex.degenerate_pivots in
  let bland0 = st.Simplex.bland_switches in
  let refactor0 = st.Simplex.refactorizations in
  let warm_a0 = st.Simplex.warm_accepts in
  let warm_r0 = st.Simplex.warm_rejects in
  st.Simplex.float_solves <- st.Simplex.float_solves + 1;
  let std = sparse_standardize p in
  let certified = ref false in
  let fell_back = ref false in
  let fallback warm' =
    st.Simplex.fallbacks <- st.Simplex.fallbacks + 1;
    fell_back := true;
    match Rat_rev.solve_std ?warm:warm' std with
    | exception Rat_rev.Iteration_limit ->
      (* Never observed: Bland's rule guarantees termination. *)
      raise (Solver_failure { rows = std.s_nrows; cols = std.s_ncols })
    | o -> result_of_rat_outcome o
  in
  let result, basis =
    match Float_rev.solve_std ?warm std with
    | exception Float_rev.Iteration_limit -> fallback None
    | Float_rev.Solved { basis; _ } ->
      (match certify p std basis with
       | Some r ->
         st.Simplex.certified <- st.Simplex.certified + 1;
         certified := true;
         (r, Some basis)
       | None -> fallback (Some basis))
    | Float_rev.Infeasible | Float_rev.Unbounded -> fallback None
  in
  if Telemetry.enabled () then begin
    Telemetry.incr m_solves;
    if !certified then Telemetry.incr m_certified;
    if !fell_back then Telemetry.incr m_fallbacks;
    Telemetry.add m_pivots (st.Simplex.pivots - pivots0);
    Telemetry.add m_degenerate (st.Simplex.degenerate_pivots - degenerate0);
    Telemetry.add m_bland (st.Simplex.bland_switches - bland0);
    Telemetry.add m_refactorizations (st.Simplex.refactorizations - refactor0);
    Telemetry.add m_warm_accepts (st.Simplex.warm_accepts - warm_a0);
    Telemetry.add m_warm_rejects (st.Simplex.warm_rejects - warm_r0)
  end;
  { result; basis }

let solve_lp (p : Lp_problem.t) : Lp_problem.result = (solve_with_basis p).result
