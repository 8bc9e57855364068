(* Exact allocation pins for the timeline engine's layers.

   Each row runs one layer on a fixed input and reads the words it
   allocated, settled: a [Gc.minor ()] at both edges of the window, then
   minor + major - promoted.  Read that way the figure is a function of
   the code alone - it repeats to the word across processes, call orders
   and heap offsets - so the pins use exact equality, not a ceiling.
   Without the collections the figure depends on the minor heap's fill
   at the window's edges and can be off by a few percent.

   The figures are for OCaml 5.1 without flambda (the compiler CI
   uses), built by dune's default profile; another compiler may
   allocate differently and needs its own table.  They hold with and
   without OCAMLRUNPARAM=b.

   A change that moves a row on purpose re-records the table here and
   states each row's delta in CHANGES.md, as the digest pins in
   test_timeline_pins.ml do.

   - Batch: every batch scheduler's [schedule] on a 10^5-request
     Zipf(0.9) trace over 1,562 blocks, k = 64, F = 8 (the two D-disk
     greedy schedulers on the same trace striped over four disks).
   - Stream: every registered streaming policy at window 64 over
     [Stream.of_array] of the same trace.
   - Executor: the three entry points replaying Aggressive's schedule
     of the single-disk trace: [Simulate.run], [run_faulty] under 10%
     jitter of up to 4 units, and [Delayed.run] at window 8 under
     Uniform 2-8 latency.
   - Index: [Next_ref.of_instance] of the single-disk trace.
   - LP: the synchronized-LP pipeline on a Zipf(0.9) trace of 40 requests
     over 6 blocks, k = 4, F = 3, striped over two disks (154 candidate
     intervals; its float solve takes 612 pivots and 5 refactorizations,
     so the every-128 refresh runs): [Sync_lp.build], [Revised.solve_lp]
     of its problem, and the whole [Rounding.solve].  Then the float
     track alone ([Revised.Float_rev.solve_std]) on the 1090-interval
     D = 4 instance of test_lp_scale.ml, whose pivot path that file
     pins. *)

let settled_words f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  ignore (Sys.opaque_identity r);
  int_of_float (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let n = 100_000
let num_blocks = 1_562
let k = 64
let fetch_time = 8

let seq = lazy (Workload.zipf ~seed:1 ~alpha:0.9 ~n ~num_blocks)
let single = lazy (Workload.single_instance ~k ~fetch_time (Lazy.force seq))

let striped4 =
  lazy
    (Workload.parallel_instance ~k ~fetch_time ~num_disks:4 ~layout:Workload.striped_layout
       (Lazy.force seq))

let batch_rows () =
  let single = Lazy.force single and par = Lazy.force striped4 in
  let d0 = Bounds.delay_opt_d ~f:fetch_time in
  [ ("aggressive", fun () -> Aggressive.schedule single);
    ("conservative", fun () -> Conservative.schedule single);
    ("delay(d0)", fun () -> Delay.schedule ~d:d0 single);
    ("combination", fun () -> Combination.schedule single);
    ("fixed_horizon", fun () -> Fixed_horizon.schedule single);
    ("online(32)", fun () -> Online.schedule (Online.aggressive ~lookahead:32) single);
    ("reverse_aggressive", fun () -> Reverse_aggressive.schedule single);
    ("aggressive-D4", fun () -> Parallel_greedy.aggressive_schedule par);
    ("conservative-D4", fun () -> Parallel_greedy.conservative_schedule par) ]

let stream_rows () =
  let seq = Lazy.force seq in
  List.map
    (fun pname ->
       let build = Option.get (Prefetcher.find pname) in
       ( pname,
         fun () ->
           Stream.run ~k ~fetch_time ~window:64 (Stream.of_array seq) (build ~fetch_time) ))
    [ "aggressive"; "delay"; "markov"; "obl"; "demand" ]

let executor_rows () =
  let single = Lazy.force single in
  let sched = Aggressive.schedule single in
  let jitter = Faults.make ~seed:1 ~jitter_prob:0.1 ~max_jitter:4 () in
  let latency = Faults.make ~seed:1 ~latency:(Faults.Uniform { lo = 2; hi = 8 }) () in
  [ ("Simulate.run", fun () -> Simulate.run single sched);
    ("run_faulty (jitter)", fun () -> Result.map fst (Simulate.run_faulty ~faults:jitter single sched));
    ("Delayed.run (window 8, uniform 2-8)",
     fun () -> Result.map (fun o -> o.Delayed.base) (Delayed.run ~window:8 ~faults:latency single sched)) ]

let small_lp =
  lazy
    (Workload.parallel_instance ~k:4 ~fetch_time:3 ~num_disks:2 ~layout:Workload.striped_layout
       (Workload.zipf ~seed:1 ~alpha:0.9 ~n:40 ~num_blocks:6))

let acceptance_lp =
  lazy
    (Workload.parallel_instance ~k:6 ~fetch_time:4 ~num_disks:4 ~layout:Workload.striped_layout
       (Workload.zipf ~seed:1 ~alpha:0.9 ~n:220 ~num_blocks:8))

let lp_rows () =
  let small = Lazy.force small_lp in
  let problem = (Sync_lp.build small).Sync_lp.problem in
  let std = Revised.sparse_standardize (Sync_lp.build (Lazy.force acceptance_lp)).Sync_lp.problem in
  [ ("Sync_lp.build", fun () -> ignore (Sync_lp.build small));
    ("Revised.solve_lp", fun () -> ignore (Revised.solve_lp problem));
    ("Rounding.solve", fun () -> ignore (Rounding.solve small));
    ("Float_rev.solve_std (1090 intervals)", fun () -> ignore (Revised.Float_rev.solve_std std)) ]

let index_rows () =
  let single = Lazy.force single in
  [ ("Next_ref.of_instance", fun () -> Next_ref.of_instance single) ]

(* Settled words per row. *)
let pinned_batch =
  [ ("aggressive", 780_545);
    ("conservative", 1_952_532);
    ("delay(d0)", 779_406);
    ("combination", 780_589);
    ("fixed_horizon", 866_494);
    ("online(32)", 987_669);
    ("reverse_aggressive", 1_777_433);
    ("aggressive-D4", 1_052_614);
    ("conservative-D4", 2_036_973) ]

let pinned_stream =
  [ ("aggressive", 360_783);
    ("delay", 362_728);
    ("markov", 888_519);
    ("obl", 471_994);
    ("demand", 361_905) ]

let pinned_executor =
  [ ("Simulate.run", 46_089);
    ("run_faulty (jitter)", 3_180_275);
    ("Delayed.run (window 8, uniform 2-8)", 3_922_782) ]

let pinned_index = [ ("Next_ref.of_instance", 203_144) ]

let pinned_lp =
  [ ("Sync_lp.build", 892_184);
    ("Revised.solve_lp", 599_366);
    ("Rounding.solve", 1_499_338);
    ("Float_rev.solve_std (1090 intervals)", 3_404_671) ]

(* Measure every row, then report every mismatch at once, so a
   deliberate change can re-record the whole table from one failure. *)
let check_table pinned rows () =
  let rows = rows () in
  Alcotest.(check (list string)) "rows" (List.map fst pinned) (List.map fst rows);
  let measured = List.map (fun (name, f) -> (name, settled_words f)) rows in
  let wrong =
    List.filter_map
      (fun ((name, want), (_, got)) ->
         if want = got then None
         else Some (Printf.sprintf "%s: pinned %d, measured %d (%+d)" name want got (got - want)))
      (List.combine pinned measured)
  in
  if wrong <> [] then Alcotest.failf "settled words moved:\n%s" (String.concat "\n" wrong)

let () =
  Alcotest.run "alloc"
    [ ("settled words",
       [ Alcotest.test_case "batch schedulers" `Quick (check_table pinned_batch batch_rows);
         Alcotest.test_case "stream policies" `Quick (check_table pinned_stream stream_rows);
         Alcotest.test_case "executor replays" `Quick (check_table pinned_executor executor_rows);
         Alcotest.test_case "next-ref index" `Quick (check_table pinned_index index_rows);
         Alcotest.test_case "LP pipeline" `Quick (check_table pinned_lp lp_rows) ]) ]
