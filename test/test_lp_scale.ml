(* Acceptance pin: the pruned synchronized LP plus the sparse revised
   solver must push the full Sync_lp -> Rounding pipeline to >= 1000
   candidate intervals on >= 4 disks inside the CI budget, and the sparse
   solver must agree with the dense exact reference (dense_lp.ml) on real
   Sync_lp tableaux. *)

module R = Rat

let rt = Alcotest.testable R.pp R.equal

let zipf = List.find (fun f -> f.Workload.name = "zipf") Workload.families

(* n=220, 8 blocks, k=6, F=4, D=4 striped: 1090 candidate intervals,
   ~15k variables after pruning. *)
let acceptance_instance () =
  let seq = zipf.Workload.generate ~seed:1 ~n:220 ~num_blocks:8 in
  Workload.parallel_instance ~k:6 ~fetch_time:4 ~num_disks:4
    ~layout:(fun ~num_blocks ~num_disks -> Workload.striped_layout ~num_blocks ~num_disks)
    seq

let mix h x = (h * 0x100000001b3) lxor x

let digest_schedule (s : Fetch_op.schedule) =
  List.fold_left
    (fun h (op : Fetch_op.t) ->
       let e = match op.evict with Some b -> b | None -> -1 in
       mix (mix (mix (mix (mix h op.at_cursor) op.delay) op.disk) op.block) e)
    (List.length s) s

(* Pivot-path pins, recorded before the float track's array kernels and
   hypersparse refactorization landed: both perform the same IEEE
   operations in the same order, so any change to these numbers means
   the solver took a different path.  Pricing reads reduced costs updated
   from each pivot's row, which differ from freshly computed ones by
   rounding: a comparison that the rounding flips moves these pins too. *)
let pinned_pivots = 5886
let pinned_refactorizations = 47
let pinned_schedule_digest = 3232825963064285740
let pinned_float_basis_digest = 157236063956556407

let test_scale_pipeline () =
  let inst = acceptance_instance () in
  let built = Sync_lp.build inst in
  let n_intervals = Array.length built.Sync_lp.intervals in
  Alcotest.(check bool)
    (Printf.sprintf "acceptance size: %d intervals >= 1000" n_intervals)
    true (n_intervals >= 1000);
  Alcotest.(check bool) "D >= 4" true (inst.Instance.num_disks >= 4);
  let before = Simplex.stats_snapshot () in
  let r = Rounding.solve inst in
  let st = Simplex.stats_since before in
  Alcotest.(check int) "pivots" pinned_pivots st.Simplex.pivots;
  Alcotest.(check int) "refactorizations" pinned_refactorizations st.Simplex.refactorizations;
  Alcotest.(check int) "schedule digest" pinned_schedule_digest
    (digest_schedule r.Rounding.schedule);
  Alcotest.(check bool) "rounded, not fallback" false r.Rounding.used_fallback;
  Alcotest.(check bool) "laminar support" true r.Rounding.laminar;
  (* Theorem 4 at scale: the rounded schedule realizes the LP optimum. *)
  Alcotest.check rt "stall = LP optimum"
    r.Rounding.lp_value
    (R.of_int r.Rounding.stats.Simulate.stall_time)

(* The float track alone takes the pinned path to the pinned basis.  Its
   allocation is pinned exactly in test_alloc.ml. *)
let test_float_track_path () =
  let std = Revised.sparse_standardize (Sync_lp.build (acceptance_instance ())).Sync_lp.problem in
  let before = Simplex.stats_snapshot () in
  let outcome = Revised.Float_rev.solve_std std in
  let pivots = (Simplex.stats_since before).Simplex.pivots in
  (match outcome with
   | Revised.Float_rev.Solved { basis; _ } ->
     Alcotest.(check int) "float basis digest" pinned_float_basis_digest
       (Array.fold_left mix (Array.length basis) basis)
   | _ -> Alcotest.fail "float track did not solve the acceptance LP");
  Alcotest.(check int) "float pivots" pinned_pivots pivots

(* Sparse-vs-dense on real Sync_lp tableaux small enough for the dense
   exact O(rows x cols) reference: byte-equal objectives, over family x
   seed x D at three instance shapes (n, blocks, k, F).  Their 300-500
   rows carry the multi-eta fill chains the factorization's hypersparse
   FTRAN must order correctly, which the random LPs of test_simplex (at
   most 7 rows) cannot build.  Every draw is an exact rational solve, a
   few tenths of a second each. *)
let shapes = [ (24, 6, 4, 3); (20, 8, 3, 2); (18, 6, 2, 3) ]

let gen_sync_case =
  QCheck2.Gen.(
    let* fam = oneofl (List.map (fun f -> f.Workload.name) Workload.families) in
    let* seed = int_range 0 9 in
    let* d = int_range 2 4 in
    let* shape = oneofl shapes in
    return (fam, seed, d, shape))

let print_sync_case (fam, seed, d, (n, blocks, k, f)) =
  Printf.sprintf "%s seed=%d D=%d n=%d blocks=%d k=%d F=%d" fam seed d n blocks k f

let prop_sync_sparse_vs_dense =
  QCheck2.Test.make ~count:80 ~name:"sparse = dense on Sync_lp corpus" ~print:print_sync_case
    gen_sync_case
    (fun (fam, seed, d, (n, blocks, k, f)) ->
       let fam = List.find (fun w -> w.Workload.name = fam) Workload.families in
       let seq = fam.Workload.generate ~seed ~n ~num_blocks:blocks in
       let inst =
         Workload.parallel_instance ~k ~fetch_time:f ~num_disks:d
           ~layout:(fun ~num_blocks ~num_disks ->
             Workload.striped_layout ~num_blocks ~num_disks)
           seq
       in
       let p = (Sync_lp.build inst).Sync_lp.problem in
       match (Dense_lp.solve p, Revised.solve_lp p) with
       | ( Lp_problem.Optimal { objective_value = v1; _ },
           Lp_problem.Optimal { objective_value = v2; values } ) ->
         R.equal v1 v2 && Result.is_ok (Lp_problem.check_feasible p values)
       | _ -> false)

let () =
  Alcotest.run "lp_scale"
    [ ( "scale",
        [ Alcotest.test_case "pipeline at 1090 intervals, D=4" `Quick test_scale_pipeline;
          Alcotest.test_case "float track pivot path" `Quick test_float_track_path;
          QCheck_alcotest.to_alcotest prop_sync_sparse_vs_dense ] ) ]
