(* Tests for the parallel-disk machinery: greedy baselines, exhaustive OPT,
   the synchronized LP (Lemma 3) and the rounding pipeline (Theorem 4). *)

let example2 () =
  Instance.parallel ~k:4 ~fetch_time:4 ~num_disks:2
    ~disk_of:[| 0; 0; 0; 0; 1; 1; 1 |]
    ~initial_cache:[ 0; 1; 4; 5 ]
    [| 0; 1; 4; 5; 2; 6; 3 |]

let example1 () =
  Instance.single_disk ~k:4 ~fetch_time:4 ~initial_cache:[ 0; 1; 2; 3 ]
    [| 0; 1; 2; 3; 3; 4; 0; 3; 3; 1 |]

(* ------------------------------------------------------------------ *)
(* Anchors. *)

let test_example2_opt_is_3 () =
  Alcotest.(check int) "opt stall" 3 ((Opt.solve_parallel (example2 ())).Opt.stall)

let test_example2_theorem4 () =
  let inst = example2 () in
  let r = Rounding.solve inst in
  let opt = (Opt.solve_parallel inst).Opt.stall in
  Alcotest.(check bool)
    (Printf.sprintf "rounded stall %d <= opt %d" r.Rounding.stats.Simulate.stall_time opt)
    true
    (r.Rounding.stats.Simulate.stall_time <= opt);
  Alcotest.(check bool) "lp value <= opt" true (Rat.le r.Rounding.lp_value (Rat.of_int opt));
  Alcotest.(check bool) "no fallback" true (not r.Rounding.used_fallback);
  Alcotest.(check bool)
    (Printf.sprintf "peak %d <= k + 2(D-1) = %d" r.Rounding.stats.Simulate.peak_occupancy
       (inst.Instance.cache_size + 2))
    true
    (r.Rounding.stats.Simulate.peak_occupancy <= inst.Instance.cache_size + 2)

let test_single_disk_lp_exact () =
  (* With D = 1 there are no extra locations (2(D-1) = 0) and the LP
     pipeline must reproduce the exact single-disk optimum. *)
  let inst = example1 () in
  let r = Rounding.solve inst in
  Alcotest.(check int) "rounded = opt = 1" 1 r.Rounding.stats.Simulate.stall_time;
  Alcotest.(check bool) "lp value = 1" true (Rat.equal r.Rounding.lp_value Rat.one);
  Alcotest.(check bool) "no extra slots" true
    (r.Rounding.stats.Simulate.peak_occupancy <= inst.Instance.cache_size)

(* ------------------------------------------------------------------ *)
(* Generators. *)

let gen_parallel_instance =
  QCheck2.Gen.(
    let* d = int_range 1 3 in
    let* nblocks = int_range (2 * d) 6 in
    let* n = int_range 2 8 in
    let* seq = array_size (return n) (int_range 0 (nblocks - 1)) in
    let* k = int_range 2 4 in
    let* f = int_range 1 3 in
    let* layout_kind = int_range 0 2 in
    let num_blocks = Array.fold_left Stdlib.max 0 seq + 1 in
    let disk_of =
      match layout_kind with
      | 0 -> Workload.striped_layout ~num_blocks ~num_disks:d
      | 1 -> Workload.partitioned_layout ~num_blocks ~num_disks:d
      | _ -> Workload.random_layout ~seed:(n + nblocks + k) ~num_blocks ~num_disks:d
    in
    let init = Instance.warm_initial_cache ~k seq in
    return (Instance.parallel ~k ~fetch_time:f ~num_disks:d ~disk_of ~initial_cache:init seq))

(* Greedy baselines always emit valid schedules and never beat OPT. *)
let prop_greedy_valid_and_dominated =
  QCheck2.Test.make ~count:150 ~name:"greedy baselines valid, >= OPT" gen_parallel_instance
    (fun inst ->
       let opt = (Opt.solve_parallel inst).Opt.stall in
       let ga = Parallel_greedy.aggressive_stall inst in
       let gc = Parallel_greedy.conservative_stall inst in
       ga >= opt && gc >= opt)

(* Theorem 4: the LP pipeline's stall never exceeds the no-extra-slots
   optimum, and it uses at most 2(D-1) extra locations. *)
let prop_theorem4 =
  QCheck2.Test.make ~count:60 ~name:"Theorem 4: rounded <= OPT, extra <= 2(D-1)"
    gen_parallel_instance
    (fun inst ->
       let r = Rounding.solve inst in
       let opt = (Opt.solve_parallel inst).Opt.stall in
       let stall = r.Rounding.stats.Simulate.stall_time in
       let peak_ok =
         r.Rounding.stats.Simulate.peak_occupancy
         <= inst.Instance.cache_size + (2 * (inst.Instance.num_disks - 1))
       in
       if r.Rounding.used_fallback then
         QCheck2.Test.fail_reportf "fallback triggered on %s" (Format.asprintf "%a" Instance.pp inst)
       else if stall > opt then
         QCheck2.Test.fail_reportf "rounded %d > opt %d on %s" stall opt
           (Format.asprintf "%a" Instance.pp inst)
       else if not peak_ok then
         QCheck2.Test.fail_reportf "peak %d too high on %s" r.Rounding.stats.Simulate.peak_occupancy
           (Format.asprintf "%a" Instance.pp inst)
       else true)

(* Lemma 3: the synchronized LP's value (with its D-1 padding slots) is a
   lower bound on the no-extra-slots optimum. *)
let prop_lemma3 =
  QCheck2.Test.make ~count:60 ~name:"Lemma 3: LP value <= OPT" gen_parallel_instance
    (fun inst ->
       let lp = Sync_lp.lower_bound inst in
       let opt = (Opt.solve_parallel inst).Opt.stall in
       if Rat.le lp (Rat.of_int opt) then true
       else
         QCheck2.Test.fail_reportf "LP %s > opt %d on %s" (Rat.to_string lp) opt
           (Format.asprintf "%a" Instance.pp inst))

(* E12 (single-disk integrality): with D = 1, the exact LP optimum equals
   the combinatorial optimum - the integrality property of
   Albers-Garg-Leonardi that the paper's Section 3 builds on. *)
let gen_single_instance =
  QCheck2.Gen.(
    let* nblocks = int_range 2 6 in
    let* n = int_range 2 10 in
    let* seq = array_size (return n) (int_range 0 (nblocks - 1)) in
    let* k = int_range 1 4 in
    let* f = int_range 1 4 in
    let init = Instance.warm_initial_cache ~k seq in
    return (Instance.single_disk ~k ~fetch_time:f ~initial_cache:init seq))

let prop_single_disk_lp_integral =
  QCheck2.Test.make ~count:60 ~name:"D=1: LP value = combinatorial OPT" gen_single_instance
    (fun inst ->
       let lp = Sync_lp.lower_bound inst in
       let opt = (Opt.solve_single inst).Opt.stall in
       if Rat.equal lp (Rat.of_int opt) then true
       else
         QCheck2.Test.fail_reportf "LP %s <> opt %d on %s" (Rat.to_string lp) opt
           (Format.asprintf "%a" Instance.pp inst))

let prop_single_disk_rounding_exact =
  QCheck2.Test.make ~count:60 ~name:"D=1: rounding recovers OPT with 0 extra slots"
    gen_single_instance
    (fun inst ->
       let r = Rounding.solve inst in
       let opt = (Opt.solve_single inst).Opt.stall in
       (not r.Rounding.used_fallback)
       && r.Rounding.stats.Simulate.stall_time = opt
       && r.Rounding.stats.Simulate.peak_occupancy <= inst.Instance.cache_size)

(* A solver that dies with a typed arithmetic-overflow error must land in
   the greedy fallback, not escape to the caller: the rounding pipeline
   treats exact-arithmetic overflow like any other recoverable solver
   failure. *)
let test_fallback_on_typed_overflow () =
  let inst = example2 () in
  List.iter
    (fun (label, solver) ->
       let r = Rounding.solve ~solver inst in
       Alcotest.(check bool) (label ^ ": used fallback") true r.Rounding.used_fallback;
       Alcotest.(check bool) (label ^ ": schedule valid") true
         (Result.is_ok (Simulate.run ~extra_slots:2 inst r.Rounding.schedule)))
    [ ( "bigint overflow",
        fun _ -> ignore (Bigint.to_int (Bigint.mul (Bigint.of_int max_int) Bigint.two)); assert false );
      ( "rat non-integer",
        fun _ -> ignore (Rat.to_int_exn Rat.half); assert false ) ]

(* Sync_ilp maps the same typed errors to Internal_error instead of
   letting them escape raw; exercised via the exception constructors
   directly since its solver is not pluggable. *)

(* The parallel search with D = 1 agrees with the single-disk DP. *)
let prop_opt_parallel_d1 =
  QCheck2.Test.make ~count:80 ~name:"solve_parallel(D=1) = solve_single" gen_single_instance
    (fun inst -> (Opt.solve_parallel inst).Opt.stall = (Opt.solve_single inst).Opt.stall)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_greedy_valid_and_dominated; prop_theorem4; prop_lemma3;
      prop_single_disk_lp_integral; prop_single_disk_rounding_exact; prop_opt_parallel_d1 ]

let () =
  Alcotest.run "core-parallel"
    [ ( "anchors",
        [ Alcotest.test_case "example 2 opt = 3" `Quick test_example2_opt_is_3;
          Alcotest.test_case "example 2 theorem 4" `Quick test_example2_theorem4;
          Alcotest.test_case "single-disk LP exact" `Quick test_single_disk_lp_exact;
          Alcotest.test_case "typed overflow -> greedy fallback" `Quick
            test_fallback_on_typed_overflow ] );
      ("properties", props) ]
