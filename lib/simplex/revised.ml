(* Sparse revised simplex with warm starts.

   Same two-phase primal algorithm as {!Simplex.Make} — Dantzig pricing
   with the Bland anti-cycling switch — but over sparse column storage
   with a maintained product-form basis factorization (an eta file),
   instead of dense tableau pivoting.  Each iteration costs
   O(nnz(basis) + priced columns) rather than O(rows x cols), which is
   what lets the synchronized parallel-disk LPs ({!Sync_lp}) scale to
   thousands of candidate intervals and D >> 2 disks.

   [solve_lp] keeps the float-then-certify two-track structure of
   {!Simplex.solve_exact}: solve over floats, re-factorize and verify the
   final basis over exact rationals (primal + dual feasibility), and fall
   back to the pure exact revised solver on any doubt.  [solve_with_basis]
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
    mutable etas : F.t Lp_field.eta array;  (* the product-form inverse *)
    mutable n_etas : int;
    scratch : F.t array;  (* FTRAN workspace, length m *)
    (* Shared sparsity tracker for FTRAN workspaces.  At most one tracked
       vector is live at a time; it must be cleared with [clear_tracked]
       before the next tracked load. *)
    tr : Lp_field.tracker;
    (* [factorize] only: the eta pivoting on each row (-1 if none), and the
       heap workspace of [Lp_field.ftran_hyper]. *)
    eta_of_row : int array;  (* length m *)
    heap : int array;  (* length m *)
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
      etas = Array.make 64 { Lp_field.er = 0; ei = [||]; ev = [||]; epiv = F.one };
      n_etas = 0;
      scratch = Array.make m F.zero;
      tr = { Lp_field.mark = Array.make m false; nzl = Array.make m 0; n_nz = 0 };
      eta_of_row = Array.make m (-1);
      heap = Array.make m 0 }

  let push_eta ctx e =
    if ctx.n_etas = Array.length ctx.etas then begin
      let bigger = Array.make (2 * ctx.n_etas) e in
      Array.blit ctx.etas 0 bigger 0 ctx.n_etas;
      ctx.etas <- bigger
    end;
    ctx.etas.(ctx.n_etas) <- e;
    ctx.n_etas <- ctx.n_etas + 1

  (* x <- B^-1 x, applying the eta file forward. *)
  let ftran ctx (x : F.t array) = F.ftran ctx.etas ctx.n_etas x

  (* y <- B^-T y, applying the eta file in reverse. *)
  let btran ctx (y : F.t array) = F.btran ctx.etas ctx.n_etas y

  let col_nnz ctx j = if j < ctx.ncols then Array.length (fst ctx.cols.(j)) else 1

  (* Tracked vectors: ctx.tr holds a superset of the nonzero positions of
     [x], so downstream scans are O(fill) instead of O(m).  Positions only
     become nonzero through tracked writes; [clear_tracked] re-zeroes
     exactly the written positions. *)
  let clear_tracked ctx (x : F.t array) =
    let tr = ctx.tr in
    for q = 0 to tr.n_nz - 1 do
      let i = tr.nzl.(q) in
      x.(i) <- F.zero;
      tr.mark.(i) <- false
    done;
    tr.n_nz <- 0

  (* Load column j into the all-zero tracked vector [x]. *)
  let load_col_t ctx (x : F.t array) j =
    if j < ctx.ncols then begin
      let ri, rv = ctx.cols.(j) in
      for q = 0 to Array.length ri - 1 do
        let i = ri.(q) in
        Lp_field.touch ctx.tr i;
        x.(i) <- rv.(q)
      done
    end
    else begin
      let i = j - ctx.ncols in
      Lp_field.touch ctx.tr i;
      x.(i) <- ctx.art_sign.(i)
    end

  (* FTRAN on a tracked vector.  x.(er) <> 0 implies er is already
     marked; only an eta's off-pivot rows can be new. *)
  let ftran_t ctx (x : F.t array) = F.ftran_tracked ctx.etas ctx.n_etas x ctx.tr

  (* Rebuild the eta file from the current basis set and recompute x_b.
     Columns are pivoted sparsest-first, preferring exact +-1 pivots (cheap
     rationals, stable floats); basis positions are permuted accordingly.
     @raise Singular_basis if the basis columns do not span. *)
  let factorize ctx =
    stats.Simplex.refactorizations <- stats.Simplex.refactorizations + 1;
    ctx.n_etas <- 0;
    Array.fill ctx.eta_of_row 0 ctx.m (-1);
    let order = Array.init ctx.m (fun i -> i) in
    Array.sort (fun a b -> compare (col_nnz ctx ctx.basis.(a)) (col_nnz ctx ctx.basis.(b))) order;
    let row_done = Array.make ctx.m false in
    let new_basis = Array.make ctx.m (-1) in
    let tr = ctx.tr in
    let minus_one = F.neg F.one in
    Array.iter
      (fun p ->
         let j = ctx.basis.(p) in
         load_col_t ctx ctx.scratch j;
         (* The etas pushed so far all have distinct pivot rows. *)
         Lp_field.ftran_hyper F.eta_tracked ctx.etas ctx.eta_of_row ctx.heap ctx.scratch tr;
         let r = ref (-1) in
         let best = ref 0.0 in
         for q = 0 to tr.n_nz - 1 do
           let i = tr.nzl.(q) in
           if (not row_done.(i)) && not (F.is_zero ctx.scratch.(i)) then begin
             let v = ctx.scratch.(i) in
             let mag =
               if F.compare v F.one = 0 || F.compare v minus_one = 0 then Float.infinity
               else Float.abs (F.to_float v)
             in
             if !r < 0 || mag > !best then begin
               r := i;
               best := mag
             end
           end
         done;
         if !r < 0 then begin
           clear_tracked ctx ctx.scratch;
           raise Singular_basis
         end;
         let r = !r in
         let cnt = ref 0 in
         for q = 0 to tr.n_nz - 1 do
           let i = tr.nzl.(q) in
           if i <> r && not (F.is_zero ctx.scratch.(i)) then incr cnt
         done;
         (* Unit pivots with no off-pivot fill (slack/artificial columns
            not yet touched by fill-in) are identity etas: skip them, so
            the eta file length tracks the structural basis content, not
            m.  FTRAN/BTRAN cost scales with the file length, so this is
            the difference between O(nnz) and O(m) iterations. *)
         if !cnt > 0 || not (F.compare ctx.scratch.(r) F.one = 0) then begin
           let ei = Array.make !cnt 0 in
           let ev = Array.make !cnt F.zero in
           let w = ref 0 in
           for q = 0 to tr.n_nz - 1 do
             let i = tr.nzl.(q) in
             if i <> r && not (F.is_zero ctx.scratch.(i)) then begin
               ei.(!w) <- i;
               ev.(!w) <- ctx.scratch.(i);
               incr w
             end
           done;
           ctx.eta_of_row.(r) <- ctx.n_etas;
           push_eta ctx { Lp_field.er = r; ei; ev; epiv = ctx.scratch.(r) }
         end;
         clear_tracked ctx ctx.scratch;
         row_done.(r) <- true;
         new_basis.(r) <- j)
      order;
    Array.blit new_basis 0 ctx.basis 0 ctx.m;
    Array.blit ctx.b 0 ctx.x_b 0 ctx.m;
    ftran ctx ctx.x_b

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
    let cost = Array.make ctx.total F.zero in
    let y = Array.make m F.zero in
    let wcol = Array.make m F.zero in
    let compute_duals () =
      F.gather y ctx.basis cost;
      btran ctx y
    in
    let reduced j = F.reduced_cost cost ctx.cols y j in
    (* Dantzig with partial pricing: scan a wrap-around chunk of columns
       from where the last scan stopped, returning the most negative
       reduced cost seen; a full fruitless sweep proves optimality. *)
    let price_from = ref 0 in
    let chunk = max 512 (ncols / 8) in
    let price_dantzig () =
      compute_duals ();
      let best_j = ref (-1) in
      let best_d = ref F.zero in
      let examined = ref 0 in
      let j = ref !price_from in
      let continue_ = ref true in
      while !continue_ do
        if !examined >= ncols || (!best_j >= 0 && !examined >= chunk) then continue_ := false
        else begin
          let jj = !j in
          if not ctx.in_basis.(jj) then begin
            let d = reduced jj in
            if lt0 d && (!best_j < 0 || F.compare d !best_d < 0) then begin
              best_j := jj;
              best_d := d
            end
          end;
          incr examined;
          j := jj + 1;
          if !j >= ncols then j := 0
        end
      done;
      price_from := !j;
      !best_j
    in
    (* Bland: first non-basic column (in index order) with negative reduced
       cost.  Cannot cycle; artificials are excluded by construction. *)
    let price_bland () =
      compute_duals ();
      let found = ref (-1) in
      (try
         for j = 0 to ncols - 1 do
           if (not ctx.in_basis.(j)) && lt0 (reduced j) then begin
             found := j;
             raise Exit
           end
         done
       with Exit -> ());
      !found
    in
    (* Ratio test over the tracked wcol = B^-1 A_j.  Ties go to the larger
       pivot magnitude under Dantzig (degenerate ties are the common case
       and a large pivot keeps the eta file well conditioned in float), and
       to the smaller basis column id under Bland (required for the
       termination argument).  Returns the leaving position. *)
    let pivot_pref entry = Float.abs (F.to_float entry) in
    let ratio_test bland =
      let leave = ref (-1) in
      let best_ratio = ref F.zero in
      for q = 0 to ctx.tr.n_nz - 1 do
        let i = ctx.tr.nzl.(q) in
        let entry = wcol.(i) in
        if gt0 entry then begin
          let ratio = F.div ctx.x_b.(i) entry in
          let better =
            !leave < 0
            || F.compare ratio !best_ratio < 0
            || (F.compare ratio !best_ratio = 0
                &&
                if bland then ctx.basis.(i) < ctx.basis.(!leave)
                else pivot_pref entry > pivot_pref wcol.(!leave))
          in
          if better then begin
            leave := i;
            best_ratio := ratio
          end
        end
      done;
      !leave
    in
    (* Replace basis position [leave] by column j; the tracked wcol holds
       B^-1 A_j and is consumed (cleared).  Returns the primal step theta. *)
    let do_pivot leave j =
      let theta = F.div ctx.x_b.(leave) wcol.(leave) in
      let cnt = ref 0 in
      for q = 0 to ctx.tr.n_nz - 1 do
        let i = ctx.tr.nzl.(q) in
        if i <> leave && not (F.is_zero wcol.(i)) then begin
          incr cnt;
          if not (F.is_zero theta) then
            ctx.x_b.(i) <- F.sub ctx.x_b.(i) (F.mul wcol.(i) theta)
        end
      done;
      ctx.x_b.(leave) <- theta;
      let ei = Array.make !cnt 0 in
      let ev = Array.make !cnt F.zero in
      let w = ref 0 in
      for q = 0 to ctx.tr.n_nz - 1 do
        let i = ctx.tr.nzl.(q) in
        if i <> leave && not (F.is_zero wcol.(i)) then begin
          ei.(!w) <- i;
          ev.(!w) <- wcol.(i);
          incr w
        end
      done;
      push_eta ctx { er = leave; ei; ev; epiv = wcol.(leave) };
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
      let rec loop iters stalled bland since_refactor =
        if iters > max_iters then raise Iteration_limit;
        let j = if bland then price_bland () else price_dantzig () in
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
                0
              end
              else since_refactor
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
           a substitute column exists; redundant rows keep theirs. *)
        let exception Found of int in
        for r = 0 to m - 1 do
          if ctx.basis.(r) >= ncols then begin
            Array.fill y 0 m F.zero;
            y.(r) <- F.one;
            btran ctx y;
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
            btran ctx y;
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
   re-check against the original problem (belt and braces, same as the
   dense hybrid). *)
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

(* Hybrid exact driver, mirroring [Simplex.solve_exact]: float revised
   simplex for speed, exact sparse certification, exact revised solver as
   the fallback (warm-started from the float basis when one exists).
   Returns the optimal basis so callers (branch and bound) can warm-start
   related solves. *)
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
      (* Never observed (Bland guarantees termination); the dense exact
         reference solver is the last resort. *)
      (Simplex.solve_pure_exact p, None)
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

(* Drop-in replacement for [Simplex.solve_exact] over the sparse path. *)
let solve_lp (p : Lp_problem.t) : Lp_problem.result = (solve_with_basis p).result
