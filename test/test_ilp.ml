(* Tests for the 0-1 branch-and-bound solver and its use on the
   synchronized program. *)

module P = Lp_problem
module R = Rat

let rt = Alcotest.testable R.pp R.equal

(* Build a 0-1 knapsack as a minimization:
   min -sum v_i x_i  s.t.  sum w_i x_i <= cap, 0 <= x <= 1. *)
let knapsack values weights cap =
  let b = P.Builder.create ~direction:P.Minimize () in
  let vars = List.mapi (fun i _ -> P.Builder.add_var b (Printf.sprintf "x%d" i)) values in
  P.Builder.set_objective b (List.mapi (fun i v -> (i, R.of_int (-v))) values);
  P.Builder.add_row b (List.mapi (fun i w -> (i, R.of_int w)) weights) P.Le (R.of_int cap);
  List.iter (fun v -> P.Builder.add_row b [ (v, R.one) ] P.Le R.one) vars;
  P.Builder.freeze b

let brute_knapsack values weights cap =
  let n = List.length values in
  let va = Array.of_list values and wa = Array.of_list weights in
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let v = ref 0 and w = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        v := !v + va.(i);
        w := !w + wa.(i)
      end
    done;
    if !w <= cap && !v > !best then best := !v
  done;
  !best

let test_knapsack_known () =
  (* values 60,100,120 / weights 10,20,30 / cap 50 -> 220. *)
  let p = knapsack [ 60; 100; 120 ] [ 10; 20; 30 ] 50 in
  let o = Ilp.solve p in
  Alcotest.(check bool) "proved" true o.Ilp.proved_optimal;
  (match o.Ilp.result with
   | P.Optimal { objective_value; values } ->
     Alcotest.check rt "objective" (R.of_int (-220)) objective_value;
     Array.iter
       (fun v -> Alcotest.(check bool) "binary" true (R.is_zero v || R.equal v R.one))
       values
   | _ -> Alcotest.fail "expected optimal")

let test_ilp_infeasible () =
  let b = P.Builder.create () in
  let x = P.Builder.add_var b "x" in
  P.Builder.add_row b [ (x, R.one) ] P.Ge (R.of_int 2);
  P.Builder.add_row b [ (x, R.one) ] P.Le R.one;
  let p = P.Builder.freeze b in
  match (Ilp.solve p).Ilp.result with
  | P.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

(* Unbounded relaxation surfaces as the typed exception, not a crash
   (satellite bugfix: this was a bare [failwith]). *)
let test_ilp_unbounded_typed () =
  let b = P.Builder.create ~direction:P.Minimize () in
  let y = P.Builder.add_var b "y" in
  let z = P.Builder.add_var b "z" in
  P.Builder.set_objective b [ (y, R.of_int (-1)) ];
  (* z is capped but y is free upwards: the root relaxation is unbounded. *)
  P.Builder.add_row b [ (z, R.one) ] P.Le R.one;
  let p = P.Builder.freeze b in
  match Ilp.solve p with
  | exception Ilp.Unbounded_relaxation { depth; nodes_explored } ->
    Alcotest.(check int) "at the root" 0 depth;
    Alcotest.(check bool) "no nodes finished" true (nodes_explored >= 0)
  | _ -> Alcotest.fail "expected Unbounded_relaxation"

(* The warm-started revised node solver must price the same optima as the
   dense solver with warm starts disabled, and actually exercise the
   warm-start path on a branching instance. *)
let test_ilp_warm_vs_dense () =
  let p = knapsack [ 10; 7; 25; 24; 13; 8 ] [ 3; 2; 6; 5; 4; 3 ] 10 in
  let s0 = Simplex.stats_snapshot () in
  let warm = Ilp.solve p in
  let d = Simplex.stats_since s0 in
  let dense = Ilp.solve ~solver:Dense_lp.solve p in
  (match (warm.Ilp.result, dense.Ilp.result) with
   | P.Optimal { objective_value = v1; _ }, P.Optimal { objective_value = v2; _ } ->
     Alcotest.check rt "same optimum" v2 v1
   | _ -> Alcotest.fail "expected optimal from both");
  Alcotest.(check bool) "warm starts exercised" true (d.Simplex.warm_accepts > 0)

let prop_ilp_warm_matches_dense =
  QCheck2.Test.make ~count:60 ~name:"warm-started ILP = dense-node ILP"
    QCheck2.Gen.(
      let* n = int_range 1 7 in
      let* values = list_size (return n) (int_range 1 30) in
      let* weights = list_size (return n) (int_range 1 15) in
      let* cap = int_range 1 40 in
      return (values, weights, cap))
    (fun (values, weights, cap) ->
       let p = knapsack values weights cap in
       let warm = Ilp.solve p in
       let dense = Ilp.solve ~solver:Dense_lp.solve p in
       match (warm.Ilp.result, dense.Ilp.result) with
       | P.Optimal { objective_value = v1; _ }, P.Optimal { objective_value = v2; _ } ->
         R.equal v1 v2
       | P.Infeasible, P.Infeasible -> true
       | _ -> false)

let prop_knapsack_matches_brute =
  QCheck2.Test.make ~count:100 ~name:"ILP knapsack = brute force"
    QCheck2.Gen.(
      let* n = int_range 1 8 in
      let* values = list_size (return n) (int_range 1 30) in
      let* weights = list_size (return n) (int_range 1 15) in
      let* cap = int_range 1 40 in
      return (values, weights, cap))
    (fun (values, weights, cap) ->
       let o = Ilp.solve (knapsack values weights cap) in
       match o.Ilp.result with
       | P.Optimal { objective_value; _ } ->
         o.Ilp.proved_optimal
         && R.equal objective_value (R.of_int (- brute_knapsack values weights cap))
       | _ -> false)

(* Sandwich: LP <= ILP, and the rounded schedule never exceeds the ILP
   optimum (it may use more extra slots, so it may be strictly better). *)
let gen_tiny_parallel =
  QCheck2.Gen.(
    let* d = int_range 1 3 in
    let* nblocks = int_range (2 * d) 6 in
    let* n = int_range 2 7 in
    let* seq = array_size (return n) (int_range 0 (nblocks - 1)) in
    let* k = int_range 2 3 in
    let* f = int_range 1 3 in
    let num_blocks = Array.fold_left Stdlib.max 0 seq + 1 in
    let disk_of = Workload.striped_layout ~num_blocks ~num_disks:d in
    let init = Instance.warm_initial_cache ~k seq in
    return (Instance.parallel ~k ~fetch_time:f ~num_disks:d ~disk_of ~initial_cache:init seq))

let prop_sandwich =
  QCheck2.Test.make ~count:40 ~name:"LP <= ILP and rounded <= ILP" gen_tiny_parallel
    (fun inst ->
       let r = Rounding.solve inst in
       let ilp = Sync_ilp.solve inst in
       if not ilp.Sync_ilp.proved_optimal then true (* budget exhausted: skip *)
       else if R.gt r.Rounding.lp_value ilp.Sync_ilp.stall then
         QCheck2.Test.fail_reportf "LP %s > ILP %s" (R.to_string r.Rounding.lp_value)
           (R.to_string ilp.Sync_ilp.stall)
       else if R.gt (R.of_int r.Rounding.stats.Simulate.stall_time) ilp.Sync_ilp.stall then
         QCheck2.Test.fail_reportf "rounded %d > ILP %s" r.Rounding.stats.Simulate.stall_time
           (R.to_string ilp.Sync_ilp.stall)
       else true)

(* The ILP's synchronized optimum is itself sandwiched by the true optima
   with k and k + D - 1 slots. *)
let prop_ilp_vs_opt =
  QCheck2.Test.make ~count:25 ~name:"OPT(k + D - 1) <= ILP <= OPT(k)" gen_tiny_parallel
    (fun inst ->
       let ilp = Sync_ilp.solve inst in
       if not ilp.Sync_ilp.proved_optimal then true
       else begin
         let d = inst.Instance.num_disks in
         let opt_k = Opt_parallel.solve_stall inst in
         let opt_aug = Opt_parallel.solve_stall ~extra_slots:(d - 1) inst in
         R.le ilp.Sync_ilp.stall (R.of_int opt_k)
         && R.ge ilp.Sync_ilp.stall (R.of_int opt_aug)
       end)

let () =
  Alcotest.run "ilp"
    [ ( "unit",
        [ Alcotest.test_case "knapsack known" `Quick test_knapsack_known;
          Alcotest.test_case "infeasible" `Quick test_ilp_infeasible;
          Alcotest.test_case "unbounded typed" `Quick test_ilp_unbounded_typed;
          Alcotest.test_case "warm vs dense" `Quick test_ilp_warm_vs_dense ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_knapsack_matches_brute;
            prop_ilp_warm_matches_dense;
            prop_sandwich;
            prop_ilp_vs_opt ] ) ]
