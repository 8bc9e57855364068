(* Tests for the LP substrate: problem construction, the exact simplex, the
   float simplex, and the hybrid certified driver. *)

module P = Lp_problem
module R = Rat

let rt = Alcotest.testable R.pp R.equal

let r = R.of_ints

(* Build a problem from plain int data for readability:
   [vars] = number of variables, [obj] = (var, coeff) list,
   rows = (coeffs, relation, rhs). *)
let make_problem ?(direction = P.Minimize) vars obj rows =
  let b = P.Builder.create ~direction () in
  for i = 0 to vars - 1 do
    ignore (P.Builder.add_var b (Printf.sprintf "x%d" i))
  done;
  P.Builder.set_objective b (List.map (fun (v, c) -> (v, R.of_int c)) obj);
  List.iter
    (fun (coeffs, rel, rhs) ->
       P.Builder.add_row b (List.map (fun (v, c) -> (v, R.of_int c)) coeffs) rel (R.of_int rhs))
    rows;
  P.Builder.freeze b

let get_optimal = function
  | P.Optimal { objective_value; values } -> (objective_value, values)
  | P.Infeasible -> Alcotest.fail "unexpected: infeasible"
  | P.Unbounded -> Alcotest.fail "unexpected: unbounded"

let solvers =
  [ ("exact", Simplex.solve_pure_exact);
    ("hybrid", Simplex.solve_exact);
    ("revised", Revised.solve_lp);
    ("revised-pure", Revised.solve_pure) ]

let check_all_solvers name problem expected_obj expected_values =
  List.iter
    (fun (sname, solve) ->
       let obj, values = get_optimal (solve problem) in
       Alcotest.check rt (Printf.sprintf "%s/%s objective" name sname) expected_obj obj;
       match expected_values with
       | None -> ()
       | Some ev ->
         Alcotest.(check (list string))
           (Printf.sprintf "%s/%s values" name sname)
           (List.map R.to_string ev)
           (Array.to_list (Array.map R.to_string values)))
    solvers

(* ------------------------------------------------------------------ *)

(* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic Dantzig):
   optimum 36 at (2, 6). *)
let test_classic_max () =
  let p =
    make_problem ~direction:P.Maximize 2
      [ (0, 3); (1, 5) ]
      [ ([ (0, 1) ], P.Le, 4); ([ (1, 2) ], P.Le, 12); ([ (0, 3); (1, 2) ], P.Le, 18) ]
  in
  check_all_solvers "classic" p (R.of_int 36) (Some [ R.of_int 2; R.of_int 6 ])

(* min x + y s.t. x + 2y >= 4, 3x + y >= 6: optimum at intersection
   (8/5, 6/5), value 14/5. *)
let test_min_ge () =
  let p =
    make_problem 2
      [ (0, 1); (1, 1) ]
      [ ([ (0, 1); (1, 2) ], P.Ge, 4); ([ (0, 3); (1, 1) ], P.Ge, 6) ]
  in
  check_all_solvers "min-ge" p (r 14 5) (Some [ r 8 5; r 6 5 ])

(* Equality constraints: min 2x + 3y s.t. x + y = 10, x - y <= 2.
   Optimal: push x up to its cap: x - y = 2 with x + y = 10 -> (6, 4),
   value 24. *)
let test_equality () =
  let p =
    make_problem 2
      [ (0, 2); (1, 3) ]
      [ ([ (0, 1); (1, 1) ], P.Eq, 10); ([ (0, 1); (1, -1) ], P.Le, 2) ]
  in
  check_all_solvers "equality" p (R.of_int 24) (Some [ R.of_int 6; R.of_int 4 ])

let test_infeasible () =
  let p =
    make_problem 1 [ (0, 1) ]
      [ ([ (0, 1) ], P.Le, 1); ([ (0, 1) ], P.Ge, 2) ]
  in
  List.iter
    (fun (sname, solve) ->
       match solve p with
       | P.Infeasible -> ()
       | _ -> Alcotest.fail (sname ^ ": expected infeasible"))
    solvers

let test_unbounded () =
  let p = make_problem ~direction:P.Maximize 1 [ (0, 1) ] [ ([ (0, 1) ], P.Ge, 1) ] in
  List.iter
    (fun (sname, solve) ->
       match solve p with
       | P.Unbounded -> ()
       | _ -> Alcotest.fail (sname ^ ": expected unbounded"))
    solvers

(* Degenerate LP known to cycle under naive most-negative rule (Beale's
   example); Bland fallback must terminate. *)
let test_beale_cycling () =
  let b = P.Builder.create ~direction:P.Minimize () in
  let x1 = P.Builder.add_var b "x1" in
  let x2 = P.Builder.add_var b "x2" in
  let x3 = P.Builder.add_var b "x3" in
  let x4 = P.Builder.add_var b "x4" in
  P.Builder.set_objective b
    [ (x1, r (-3) 4); (x2, R.of_int 150); (x3, r (-1) 50); (x4, R.of_int 6) ];
  P.Builder.add_row b
    [ (x1, r 1 4); (x2, R.of_int (-60)); (x3, r (-1) 25); (x4, R.of_int 9) ]
    P.Le R.zero;
  P.Builder.add_row b
    [ (x1, r 1 2); (x2, R.of_int (-90)); (x3, r (-1) 50); (x4, R.of_int 3) ]
    P.Le R.zero;
  P.Builder.add_row b [ (x3, R.one) ] P.Le R.one;
  let p = P.Builder.freeze b in
  let obj, _ = get_optimal (Simplex.solve_pure_exact p) in
  Alcotest.check rt "beale optimum" (r (-1) 20) obj

(* Fractional vertex: min -(x+y) s.t. 2x + y <= 3, x + 2y <= 3 ->
   vertex (1,1); and with <= 2 rhs -> (2/3, 2/3). *)
let test_fractional_vertex () =
  let p =
    make_problem 2
      [ (0, -1); (1, -1) ]
      [ ([ (0, 2); (1, 1) ], P.Le, 2); ([ (0, 1); (1, 2) ], P.Le, 2) ]
  in
  check_all_solvers "fractional" p (r (-4) 3) (Some [ r 2 3; r 2 3 ])

(* Redundant equality rows exercise the artificial-driving path. *)
let test_redundant_rows () =
  let p =
    make_problem 2
      [ (0, 1); (1, 2) ]
      [ ([ (0, 1); (1, 1) ], P.Eq, 4);
        ([ (0, 2); (1, 2) ], P.Eq, 8);  (* same hyperplane *)
        ([ (0, 1) ], P.Le, 3) ]
  in
  check_all_solvers "redundant" p (R.of_int 5) (Some [ R.of_int 3; R.of_int 1 ])

let test_zero_objective () =
  (* Pure feasibility problem. *)
  let p = make_problem 2 [] [ ([ (0, 1); (1, 1) ], P.Eq, 5) ] in
  List.iter
    (fun (sname, solve) ->
       match solve p with
       | P.Optimal { objective_value; values } ->
         Alcotest.check rt (sname ^ " obj") R.zero objective_value;
         Alcotest.check rt (sname ^ " sum")
           (R.of_int 5) (R.add values.(0) values.(1))
       | _ -> Alcotest.fail (sname ^ ": expected optimal"))
    solvers

let test_duplicate_coeffs_merged () =
  (* The builder must merge duplicate variable entries in a row. *)
  let b = P.Builder.create () in
  let x = P.Builder.add_var b "x" in
  P.Builder.set_objective b [ (x, R.one) ];
  P.Builder.add_row b [ (x, R.one); (x, R.one) ] P.Ge (R.of_int 4);
  let p = P.Builder.freeze b in
  let obj, values = get_optimal (Simplex.solve_pure_exact p) in
  Alcotest.check rt "merged row obj" (R.of_int 2) obj;
  Alcotest.check rt "merged row x" (R.of_int 2) values.(0)

let test_check_feasible () =
  let p =
    make_problem 2 [ (0, 1) ]
      [ ([ (0, 1); (1, 1) ], P.Le, 3); ([ (0, 1) ], P.Ge, 1) ]
  in
  Alcotest.(check bool) "feasible point" true
    (Result.is_ok (P.check_feasible p [| R.one; R.one |]));
  Alcotest.(check bool) "violates row" true
    (Result.is_error (P.check_feasible p [| R.of_int 5; R.zero |]));
  Alcotest.(check bool) "negative var" true
    (Result.is_error (P.check_feasible p [| R.of_int 2; R.of_int (-1) |]))

(* ------------------------------------------------------------------ *)
(* Revised-simplex specifics: the Bland switch, and the process-global
   statistics counters' snapshot/reset protocol. *)

(* min -x1 s.t. x1 - x2 <= 0, x1 <= 1: the first pivot is forced
   degenerate (ratio 0 on the first row), so with a zero stall threshold
   the very next pricing round must go through Bland. *)
let test_revised_bland_pin () =
  let p =
    make_problem 2 [ (0, -1) ]
      [ ([ (0, 1); (1, -1) ], P.Le, 0); ([ (0, 1) ], P.Le, 1) ]
  in
  let s0 = Simplex.stats_snapshot () in
  (match Revised.Rat_rev.solve ~stall_threshold:0 p with
   | Revised.Rat_rev.Solved { objective; _ } ->
     Alcotest.check rt "degenerate optimum" (R.of_int (-1)) objective
   | _ -> Alcotest.fail "expected solved");
  let d = Simplex.stats_since s0 in
  Alcotest.(check bool) "bland switch recorded" true (d.Simplex.bland_switches > 0);
  Alcotest.(check bool) "degenerate pivot recorded" true (d.Simplex.degenerate_pivots > 0)

let test_stats_snapshot_reset () =
  let p =
    make_problem 2 [ (0, 1); (1, 1) ]
      [ ([ (0, 1); (1, 2) ], P.Ge, 4); ([ (0, 3); (1, 1) ], P.Ge, 6) ]
  in
  let s0 = Simplex.stats_snapshot () in
  ignore (Revised.solve_lp p);
  let d = Simplex.stats_since s0 in
  Alcotest.(check bool) "snapshot delta sees the solve" true (d.Simplex.pivots > 0);
  (* The snapshot is a decoupled copy, so the delta is exactly the live
     total minus the snapshot... *)
  Alcotest.(check int) "delta = live - snapshot"
    (Simplex.stats.Simplex.pivots - s0.Simplex.pivots) d.Simplex.pivots;
  (* ...and reset rewinds the live record to zero. *)
  Simplex.stats_reset ();
  Alcotest.(check int) "reset pivots" 0 Simplex.stats.Simplex.pivots;
  Alcotest.(check int) "reset warm accepts" 0 Simplex.stats.Simplex.warm_accepts

(* ------------------------------------------------------------------ *)
(* Property tests: random small LPs; hybrid and pure-exact must agree
   exactly, and optimal solutions must be feasible. *)

let gen_lp =
  QCheck2.Gen.(
    let small_coeff = int_range (-5) 5 in
    let* nvars = int_range 1 5 in
    let* nrows = int_range 1 6 in
    let gen_row =
      let* coeffs = list_size (return nvars) small_coeff in
      let* rel = oneofl [ P.Le; P.Ge; P.Eq ] in
      let* rhs = int_range 0 20 in
      return (coeffs, rel, rhs)
    in
    let* rows = list_size (return nrows) gen_row in
    let* obj = list_size (return nvars) small_coeff in
    (* Bound the feasible region so the LP cannot be unbounded: add
       sum x_i <= 50. *)
    return (nvars, obj, rows))

let build_lp (nvars, obj, rows) =
  let b = P.Builder.create ~direction:P.Minimize () in
  let vars = List.init nvars (fun i -> P.Builder.add_var b (Printf.sprintf "x%d" i)) in
  P.Builder.set_objective b (List.mapi (fun i c -> (i, R.of_int c)) obj);
  List.iter
    (fun (coeffs, rel, rhs) ->
       P.Builder.add_row b (List.mapi (fun i c -> (i, R.of_int c)) coeffs) rel (R.of_int rhs))
    rows;
  P.Builder.add_row b (List.map (fun v -> (v, R.one)) vars) P.Le (R.of_int 50);
  P.Builder.freeze b

let prop_exact_hybrid_agree =
  QCheck2.Test.make ~count:300 ~name:"hybrid agrees with pure exact" gen_lp
    (fun spec ->
       let p = build_lp spec in
       match (Simplex.solve_pure_exact p, Simplex.solve_exact p) with
       | P.Optimal o1, P.Optimal o2 -> R.equal o1.objective_value o2.objective_value
       | P.Infeasible, P.Infeasible -> true
       | P.Unbounded, P.Unbounded -> true
       | _ -> false)

let prop_optimal_feasible =
  QCheck2.Test.make ~count:300 ~name:"optimal solutions are feasible" gen_lp
    (fun spec ->
       let p = build_lp spec in
       match Simplex.solve_exact p with
       | P.Optimal { objective_value; values } ->
         Result.is_ok (P.check_feasible p values)
         && R.equal objective_value (P.objective_value p values)
       | P.Infeasible | P.Unbounded -> true)

let prop_float_close =
  QCheck2.Test.make ~count:200 ~name:"float solver close to exact" gen_lp
    (fun spec ->
       let p = build_lp spec in
       match (Simplex.solve_pure_exact p, Simplex.solve_float p) with
       | P.Optimal o1, P.Optimal o2 ->
         Float.abs (R.to_float o1.objective_value -. R.to_float o2.objective_value) < 1e-4
       | P.Infeasible, P.Infeasible -> true
       | _, _ -> true (* float may legitimately misclassify edge cases *))

(* Differential suite for the tentpole: the sparse revised solver (both
   the hybrid float-then-certify driver and the pure exact variant) must
   agree with the retained dense solver byte-for-byte on objectives, and
   its optima must be basis-feasible for the original problem. *)
let prop_revised_matches_dense =
  QCheck2.Test.make ~count:300 ~name:"revised (hybrid + pure) = dense exact" gen_lp
    (fun spec ->
       let p = build_lp spec in
       let agree a b =
         match (a, b) with
         | ( P.Optimal { objective_value = v1; _ },
             P.Optimal { objective_value = v2; values } ) ->
           R.equal v1 v2
           && Result.is_ok (P.check_feasible p values)
           && R.equal v2 (P.objective_value p values)
         | P.Infeasible, P.Infeasible -> true
         | P.Unbounded, P.Unbounded -> true
         | _ -> false
       in
       let dense = Simplex.solve_pure_exact p in
       agree dense (Revised.solve_lp p) && agree dense (Revised.solve_pure p))

(* Standardize audit (satellite): raw problems built without the Builder,
   so rows may carry duplicate variable keys, negative right-hand sides
   (exercising the sign-flip row rewrite for every relation, Eq included)
   and surplus columns for Ge rows.  Both standardizers must induce the
   same optimum, and a solution mapped back through the revised path must
   satisfy the original rows. *)
let gen_raw_lp =
  QCheck2.Gen.(
    let small_coeff = int_range (-4) 4 in
    let* nvars = int_range 1 4 in
    let gen_entry =
      let* v = int_range 0 (nvars - 1) in
      let* c = small_coeff in
      return (v, R.of_int c)
    in
    let gen_row =
      let* entries = list_size (int_range 1 6) gen_entry in  (* duplicates likely *)
      let* rel = oneofl [ P.Le; P.Ge; P.Eq ] in
      let* rhs = int_range (-10) 10 in
      return { P.coeffs = entries; relation = rel; rhs = R.of_int rhs }
    in
    let* rows = list_size (int_range 1 5) gen_row in
    let* obj = list_size (return nvars) small_coeff in
    let cap =
      { P.coeffs = List.init nvars (fun v -> (v, R.one)); relation = P.Le; rhs = R.of_int 30 }
    in
    return
      { P.direction = P.Minimize;
        num_vars = nvars;
        objective = List.mapi (fun i c -> (i, R.of_int c)) obj;
        rows = cap :: rows;
        names = Array.init nvars (Printf.sprintf "x%d") })

(* check_feasible folds duplicate keys, so it is the ground truth both
   solvers are judged against. *)
let prop_standardize_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"standardize round-trip on raw duplicate-key rows"
    gen_raw_lp
    (fun p ->
       match (Simplex.solve_pure_exact p, Revised.solve_pure p) with
       | ( P.Optimal { objective_value = v1; values = x1 },
           P.Optimal { objective_value = v2; values = x2 } ) ->
         R.equal v1 v2
         && Result.is_ok (P.check_feasible p x1)
         && Result.is_ok (P.check_feasible p x2)
       | P.Infeasible, P.Infeasible -> true
       | P.Unbounded, P.Unbounded -> true
       | _ -> false)

(* ------------------------------------------------------------------ *)
(* Field kernels: the array loops behind [Lp_field.FIELD] that the revised
   simplex runs its FTRAN/BTRAN, factorization, pricing and dual updates
   through.  Cases use small integers and pivots in {+-1, +-2, +-4}, so
   every value is a dyadic rational that floats represent exactly and no
   nonzero comes near the float field's 1e-9 zero tolerance: the float and
   rational kernels must then agree value for value, and the tracked FTRAN
   must list the written positions in the same order (that order decides
   pivot ties in the solver). *)

type kernel_case = {
  km : int;  (* rows *)
  ketas : (int * (int * int) list * int) list;  (* pivot row, off-pivot (row, entry), pivot *)
  kx : (int * int) list;  (* FTRAN input, distinct rows in load order *)
  ky : (int * int) list;  (* BTRAN input and pricing duals *)
  kcols : (int * int) list list;  (* sparse columns, ascending rows *)
  kcost : int list;  (* one cost per column, plus one *)
  kidx : int list;  (* gather indices into the costs *)
  kbasic : bool list;  (* per column: basic, for pricing *)
  kfrom : int;  (* where the Dantzig scan starts *)
}

(* A random eta over [rows] pivoting on [er]: off-pivot entries on up to
   all other rows, values drawn from [value]. *)
let gen_eta rows value er =
  QCheck2.Gen.(
    let* others = shuffle_l (List.filter (fun r -> r <> er) rows) in
    let* k = int_range 0 (List.length others) in
    let* ei =
      flatten_l (List.map (fun r -> map (fun v -> (r, v)) value) (List.filteri (fun i _ -> i < k) others))
    in
    let* piv = oneofl [ 1; -1; 2; -2; 4; -4 ] in
    return (er, ei, piv))

(* Pivot rows of a factorization: distinct, in random order. *)
let gen_distinct_rows m =
  QCheck2.Gen.(
    let* rs = shuffle_l (List.init m Fun.id) in
    let* k = int_range 0 m in
    return (List.filteri (fun i _ -> i < k) rs))

(* [distinct_pivots] gives every eta its own pivot row, as within one
   basis factorization; otherwise rows may repeat, as after pivots. *)
let gen_kernel_case ~distinct_pivots =
  QCheck2.Gen.(
    let* m = int_range 1 8 in
    let rows = List.init m Fun.id in
    let sparse rows range =
      let* rs = shuffle_l rows in
      let* k = int_range 0 (List.length rows) in
      flatten_l
        (List.map (fun r -> map (fun v -> (r, v)) range) (List.filteri (fun i _ -> i < k) rs))
    in
    let entry = int_range (-2) 2 in
    let* pivot_rows =
      if distinct_pivots then gen_distinct_rows m
      else list_size (int_range 0 6) (int_range 0 (m - 1))
    in
    let* ketas = flatten_l (List.map (gen_eta rows entry) pivot_rows) in
    let* kx = sparse rows (int_range (-5) 5) in
    let* ky = sparse rows (int_range (-5) 5) in
    let* kcols =
      list_size (int_range 0 5) (map (List.sort compare) (sparse rows entry))
    in
    let ncols = List.length kcols in
    let* kcost = list_size (return (ncols + 1)) (int_range (-5) 5) in
    let* kidx = list_size (int_range 0 m) (int_range 0 ncols) in
    let* kbasic = list_size (return ncols) bool in
    let* kfrom = int_range 0 (max 0 (ncols - 1)) in
    return { km = m; ketas; kx; ky; kcols; kcost; kidx; kbasic; kfrom })

(* Eta-file cases for the hypersparse BTRAN of a unit row: a factorization
   (distinct pivot rows, indexed) followed by update etas whose pivot rows
   repeat, with entries that include values inside the float field's zero
   tolerance (+-1e-10), and two unit rows solved in turn in one workspace.
   Entries are (numerator, denominator). *)
type rho_case = {
  rm : int;
  rfact : (int * (int * (int * int)) list * int) list;
  rupd : (int * (int * (int * int)) list * int) list;
  rrows : int * int;
}

let gen_rho_case =
  QCheck2.Gen.(
    let* m = int_range 1 8 in
    let rows = List.init m Fun.id in
    let value =
      frequency
        [ (6, map (fun v -> (v, 1)) (int_range (-2) 2));
          (2, oneofl [ (1, 10_000_000_000); (-1, 10_000_000_000) ]) ]
    in
    let* fact_rows = gen_distinct_rows m in
    let* rfact = flatten_l (List.map (gen_eta rows value) fact_rows) in
    let* upd_rows = list_size (int_range 0 6) (int_range 0 (m - 1)) in
    let* rupd = flatten_l (List.map (gen_eta rows value) upd_rows) in
    let* r1 = int_range 0 (m - 1) in
    let* r2 = int_range 0 (m - 1) in
    return { rm = m; rfact; rupd; rrows = (r1, r2) })

(* One pivot's dual update: an indexed factorization plus update etas as
   the basis inverse, sparse columns with costs, the basic costs, and the
   entering column. *)
type dual_case = {
  dm : int;
  dfact : (int * (int * int) list * int) list;
  dupd : (int * (int * int) list * int) list;
  dcols : (int * int) list list;  (* sparse columns, ascending rows *)
  dcost : int list;  (* per column *)
  dcb : int list;  (* basic cost per row *)
  denter : int;
}

let gen_dual_case =
  QCheck2.Gen.(
    let* m = int_range 1 6 in
    let rows = List.init m Fun.id in
    let entry = int_range (-2) 2 in
    let* fact_rows = gen_distinct_rows m in
    let* dfact = flatten_l (List.map (gen_eta rows entry) fact_rows) in
    let* upd_rows = list_size (int_range 0 3) (int_range 0 (m - 1)) in
    let* dupd = flatten_l (List.map (gen_eta rows entry) upd_rows) in
    let col =
      let* rs = shuffle_l rows in
      let* k = int_range 1 m in
      let* c =
        flatten_l
          (List.map (fun r -> map (fun v -> (r, v)) (oneofl [ -1; 1; 2 ])) (List.filteri (fun i _ -> i < k) rs))
      in
      return (List.sort compare c)
    in
    let* dcols = list_size (int_range 1 5) col in
    let ncols = List.length dcols in
    let* dcost = list_size (return ncols) (int_range (-5) 5) in
    let* dcb = list_size (return m) (int_range (-5) 5) in
    let* denter = int_range 0 (ncols - 1) in
    return { dm = m; dfact; dupd; dcols; dcost; dcb; denter })

(* Append one eta to a file, entry by entry as given (zero entries
   included). *)
let push_raw (f : 'a Lp_field.etas) (zero : 'a) er (entries : (int * 'a) list) (piv : 'a) =
  Lp_field.reserve f zero (List.length entries);
  let base = f.Lp_field.start.(f.Lp_field.n) in
  List.iteri
    (fun k (i, v) ->
       f.Lp_field.ei.(base + k) <- i;
       f.Lp_field.ev.(base + k) <- v)
    entries;
  f.Lp_field.er.(f.Lp_field.n) <- er;
  f.Lp_field.epiv.(f.Lp_field.n) <- piv;
  f.Lp_field.n <- f.Lp_field.n + 1;
  f.Lp_field.start.(f.Lp_field.n) <- base + List.length entries

module Kernels (F : Lp_field.FIELD) = struct
  let of_int n = F.of_rat (R.of_int n)
  let of_q (num, den) = F.of_rat (R.of_ints num den)

  let file of_v etas =
    let f = Lp_field.create_etas F.zero in
    List.iter (fun (er, ei, piv) -> push_raw f F.zero er (List.map (fun (i, v) -> (i, of_v v)) ei) (of_int piv)) etas;
    f

  (* A factorization, indexed, followed by update etas. *)
  let indexed_file m of_v fact upd =
    let f = Lp_field.create_etas F.zero in
    let ix = Lp_field.rowix m in
    let push (er, ei, piv) = push_raw f F.zero er (List.map (fun (i, v) -> (i, of_v v)) ei) (of_int piv) in
    List.iter
      (fun ((er, _, _) as e) ->
         ix.Lp_field.eta_of_row.(er) <- f.Lp_field.n;
         push e)
      fact;
    Lp_field.index_factorization f ix;
    List.iter push upd;
    (f, ix)

  let nz_list tr = Array.to_list (Array.sub tr.Lp_field.nzl 0 tr.Lp_field.n_nz)

  (* The full tracked FTRAN: every eta, in index order. *)
  let ftran_tracked f x tr =
    for t = 0 to f.Lp_field.n - 1 do
      F.eta_tracked f t x tr
    done

  let dense m entries =
    let x = Array.make m F.zero in
    List.iter (fun (i, v) -> x.(i) <- of_int v) entries;
    x

  (* A tracked vector loaded entry by entry, as [Revised] loads columns. *)
  let tracked m entries =
    let tr = Lp_field.tracker m in
    let x = Array.make m F.zero in
    List.iter
      (fun (i, v) ->
         Lp_field.touch tr i;
         x.(i) <- of_int v)
      entries;
    (x, tr)

  let floats a = Array.to_list (Array.map F.to_float a)

  let sparse_cols kcols =
    Array.of_list
      (List.map
         (fun col ->
            (Array.of_list (List.map fst col), Array.of_list (List.map (fun (_, v) -> of_int v) col)))
         kcols)

  (* Every kernel's output on one case, as floats, plus the tracked
     FTRAN's written positions. *)
  let run c =
    let m = c.km and etas = file of_int c.ketas in
    let x = dense m c.kx in
    F.ftran etas x;
    let xt, tr = tracked m c.kx in
    ftran_tracked etas xt tr;
    let y = dense m c.ky in
    F.btran etas y;
    let cols = sparse_cols c.kcols in
    let cost = Array.of_list (List.map of_int c.kcost) in
    let duals = dense m c.ky in
    let reduced = Array.init (Array.length cols) (F.reduced_cost cost cols duals) in
    let in_basis = Array.of_list c.kbasic in
    let d = Array.make (Array.length cols) F.one in
    F.reduced_costs cost cols duals in_basis d;
    let from = ref c.kfrom in
    let dantzig = if Array.length d = 0 then -1 else F.price_dantzig d in_basis 2 from in
    let bland = F.price_bland d in_basis in
    let g = Array.make (List.length c.kidx) F.zero in
    F.gather g (Array.of_list c.kidx) cost;
    (* Factorization's pivot choice and eta extraction, and a pivot's
       primal step, on the tracked FTRAN result. *)
    let r = F.choose_pivot xt tr (Array.make m false) in
    let eta = Lp_field.create_etas F.zero in
    let pushed = r >= 0 && F.push_tracked eta ~skip_identity:true r xt tr in
    (* The step divides by the pivot: exact in floats for a power of two. *)
    let x_b = dense m c.ky in
    let theta =
      if r >= 0 && fst (Float.frexp (Float.abs (F.to_float xt.(r)))) = 0.5 then
        [ F.to_float (F.pivot_primal x_b xt tr r) ]
      else []
    in
    ( (floats x, floats xt, nz_list tr, floats y, floats reduced, floats d),
      (dantzig, !from, bland, floats g),
      ( r,
        pushed,
        Array.to_list (Array.sub eta.Lp_field.ei 0 eta.Lp_field.start.(eta.Lp_field.n)),
        floats (Array.sub eta.Lp_field.ev 0 eta.Lp_field.start.(eta.Lp_field.n)),
        theta,
        floats x_b ) )

  (* The hypersparse FTRAN of a factorization against the full scan. *)
  let hyper_agrees c =
    let m = c.km and etas = file of_int c.ketas in
    let ix = Lp_field.rowix m in
    for t = 0 to etas.Lp_field.n - 1 do
      ix.Lp_field.eta_of_row.(etas.Lp_field.er.(t)) <- t
    done;
    let x1, tr1 = tracked m c.kx in
    ftran_tracked etas x1 tr1;
    let x2, tr2 = tracked m c.kx in
    Lp_field.ftran_hyper F.eta_tracked etas ix x2 tr2;
    floats x1 = floats x2 && nz_list tr1 = nz_list tr2

  (* rho_r = e_r^T B^-1 by hypersparse BTRAN against a full BTRAN of e_r,
     for two rows in turn in one workspace, which must be all zero again
     after each clear. *)
  let rho_agrees c =
    let m = c.rm in
    let f, ix = indexed_file m of_q c.rfact c.rupd in
    let x = Array.make m F.zero and tr = Lp_field.tracker m in
    let solve r =
      Lp_field.touch tr r;
      x.(r) <- F.one;
      Lp_field.rho_hyper F.btran_eta_tracked f ix x tr;
      let y = Array.make m F.zero in
      y.(r) <- F.one;
      F.btran f y;
      let same = floats x = floats y in
      Lp_field.clear_tracked F.zero x tr;
      same && Array.for_all (fun v -> F.to_float v = 0.0) x
    in
    let r1, r2 = c.rrows in
    let first = solve r1 in
    solve r2 && first

  (* One pivot's dual update against a fresh BTRAN and pricing.  The
     leaving row is the first tracked row whose entry of B^-1 a_q is a
     power of two, so floats stay exact; None if there is none.  Returns
     the updated and the fresh (y, d). *)
  let dual_update c =
    let m = c.dm in
    let f, ix = indexed_file m of_int c.dfact c.dupd in
    let cols = sparse_cols c.dcols in
    let nc = Array.length cols in
    let cost = Array.of_list (List.map of_int c.dcost) in
    let cb = Array.of_list (List.map of_int c.dcb) in
    let in_basis = Array.make nc false in
    let y = Array.copy cb in
    F.btran f y;
    let d = Array.make nc F.zero in
    F.reduced_costs cost cols y in_basis d;
    let q = c.denter in
    let w = Array.make m F.zero and tr = Lp_field.tracker m in
    F.load_tracked (fst cols.(q)) (snd cols.(q)) w tr;
    ftran_tracked f w tr;
    let pow2 v =
      let a = Float.abs (F.to_float v) in
      a > 0.0 && fst (Float.frexp a) = 0.5
    in
    match List.find_opt (fun i -> pow2 w.(i)) (nz_list tr) with
    | None -> None
    | Some r ->
      let dq = d.(q) in
      ignore (F.push_tracked f ~skip_identity:false r w tr);
      Lp_field.clear_tracked F.zero w tr;
      in_basis.(q) <- true;
      d.(q) <- F.zero;
      Lp_field.touch tr r;
      w.(r) <- F.one;
      Lp_field.rho_hyper F.btran_eta_tracked f ix w tr;
      F.update_duals dq w tr y (Lp_field.rows_of_cols m cols F.zero) in_basis d
        (Array.make nc F.zero) (Lp_field.tracker nc);
      cb.(r) <- cost.(q);
      let y' = Array.copy cb in
      F.btran f y';
      let d' = Array.make nc F.zero in
      F.reduced_costs cost cols y' in_basis d';
      Some ((y, d), (y', d'))
end

module Kf = Kernels (Lp_field.Float_field)
module Kr = Kernels (Lp_field.Rat_field)

let prop_kernels_float_eq_rat =
  QCheck2.Test.make ~count:500 ~name:"field kernels: float = rat on exact inputs"
    (gen_kernel_case ~distinct_pivots:false)
    (fun c -> Kf.run c = Kr.run c)

let prop_hyper_ftran =
  QCheck2.Test.make ~count:500 ~name:"hypersparse FTRAN = full tracked FTRAN"
    (gen_kernel_case ~distinct_pivots:true)
    (fun c -> Kr.hyper_agrees c && Kf.hyper_agrees c)

let prop_rho_hyper =
  QCheck2.Test.make ~count:1000 ~name:"hypersparse rho_r = full BTRAN of e_r" gen_rho_case
    (fun c -> Kr.rho_agrees c && Kf.rho_agrees c)

let prop_dual_update =
  QCheck2.Test.make ~count:1000 ~name:"dual update = fresh BTRAN and pricing" gen_dual_case
    (fun c ->
       let floats (y, d) = (Kf.floats y, Kf.floats d) in
       match (Kr.dual_update c, Kf.dual_update c) with
       | None, None -> true
       | Some ((y, d), (y', d')), Some (upd, _) ->
         let exact a b = Array.for_all2 R.equal a b in
         exact y y' && exact d d' && floats upd = (Kr.floats y, Kr.floats d)
       | _ -> false)

(* The float kernels drop exactly the entries [Float_field.is_zero]
   drops: |x| <= 1e-9. *)
let test_float_kernels_tolerance () =
  let module Ff = Lp_field.Float_field in
  let tiny = 1e-9 and small = 2e-9 in
  Alcotest.(check bool) "is_zero 1e-9" true (Ff.is_zero tiny);
  Alcotest.(check bool) "is_zero -1e-9" true (Ff.is_zero (-.tiny));
  Alcotest.(check bool) "is_zero 2e-9" false (Ff.is_zero small);
  let exact = Alcotest.(array (float 0.0)) in
  let eta piv =
    let f = Lp_field.create_etas 0.0 in
    push_raw f 0.0 0 [ (1, 1.0) ] piv;
    f
  in
  let e = eta 2.0 in
  let x = [| tiny; 5.0 |] in
  Ff.ftran e x;
  Alcotest.check exact "ftran skips a 1e-9 pivot-row entry" [| tiny; 5.0 |] x;
  let x = [| small; 5.0 |] in
  Ff.ftran e x;
  Alcotest.check exact "ftran applies a 2e-9 pivot-row entry"
    [| small /. 2.0; 5.0 -. (small /. 2.0) |] x;
  let tr = { Lp_field.mark = [| true; false |]; nzl = [| 0; 0 |]; n_nz = 1 } in
  let x = [| -.tiny; 0.0 |] in
  Ff.eta_tracked e 0 x tr;
  Alcotest.check exact "tracked ftran skips it too" [| -.tiny; 0.0 |] x;
  Alcotest.(check int) "and touches nothing" 1 tr.Lp_field.n_nz;
  let y = [| 3.0; -.tiny |] in
  Ff.btran (eta 1.0) y;
  Alcotest.check exact "btran drops a 1e-9 dual" [| 3.0; -.tiny |] y;
  (* One tracked BTRAN eta reports the class of the value it writes. *)
  let step y =
    let tr = Lp_field.tracker 2 in
    let cls = Ff.btran_eta_tracked (eta 1.0) 0 y tr in
    (cls, tr.Lp_field.n_nz)
  in
  Alcotest.(check (pair int int)) "exact zero written: class 0, row touched" (0, 1)
    (step [| 0.0; tiny |]);
  Alcotest.(check (pair int int)) "1e-9 written: class 1, row touched" (1, 1)
    (step [| tiny; 0.0 |]);
  Alcotest.(check (pair int int)) "2e-9 written: class 2" (2, 1) (step [| small; 0.0 |]);
  let cols = [| ([| 0; 1 |], [| 1.0; 1.0 |]) |] in
  Alcotest.(check (float 0.0)) "reduced cost drops a 1e-9 dual" 0.5
    (Ff.reduced_cost [| 1.0 |] cols [| tiny; 0.5 |] 0);
  Alcotest.(check (float 0.0)) "reduced cost keeps a 2e-9 dual" (1.0 -. small -. 0.5)
    (Ff.reduced_cost [| 1.0 |] cols [| small; 0.5 |] 0);
  let no_basis = [| false; false |] in
  Alcotest.(check int) "pricing ignores a -1e-9 reduced cost" (-1)
    (Ff.price_bland [| -.tiny; 0.0 |] no_basis);
  Alcotest.(check int) "pricing takes a -2e-9 reduced cost" 1
    (Ff.price_bland [| -.tiny; -.small |] no_basis);
  Alcotest.(check int) "Dantzig keeps the first of two within 1e-9" 0
    (Ff.price_dantzig [| -1.0; -1.0 -. (tiny /. 2.0) |] no_basis 2 (ref 0))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_exact_hybrid_agree;
      prop_optimal_feasible;
      prop_float_close;
      prop_revised_matches_dense;
      prop_standardize_roundtrip;
      prop_kernels_float_eq_rat;
      prop_hyper_ftran;
      prop_rho_hyper;
      prop_dual_update ]

let () =
  Alcotest.run "simplex"
    [ ( "unit",
        [ Alcotest.test_case "classic max" `Quick test_classic_max;
          Alcotest.test_case "min with >=" `Quick test_min_ge;
          Alcotest.test_case "equality rows" `Quick test_equality;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "beale cycling" `Quick test_beale_cycling;
          Alcotest.test_case "fractional vertex" `Quick test_fractional_vertex;
          Alcotest.test_case "redundant rows" `Quick test_redundant_rows;
          Alcotest.test_case "zero objective" `Quick test_zero_objective;
          Alcotest.test_case "duplicate coeffs" `Quick test_duplicate_coeffs_merged;
          Alcotest.test_case "check_feasible" `Quick test_check_feasible;
          Alcotest.test_case "revised bland pin" `Quick test_revised_bland_pin;
          Alcotest.test_case "stats snapshot/reset" `Quick test_stats_snapshot_reset;
          Alcotest.test_case "float kernels skip |x| <= 1e-9" `Quick
            test_float_kernels_tolerance ] );
      ("properties", props) ]
