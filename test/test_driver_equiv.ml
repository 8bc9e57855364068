(* Driver-equivalence suite (PR 5).

   Production runs every batch scheduler on Driver.run: monotone
   next-missing frontiers, the lazy-invalidation eviction heap and the
   event-skipping clock.  The seed engine lives on as a checking oracle,
   Ck_seed: a per-instant loop over Driver's stepping functions that
   compares every frontier and heap answer with a fresh scan, running
   Online's and Delay's seed rules.  Production must be observationally
   identical to it.  "Identical" here is the strongest available check:
   byte-identical Fetch_op.schedules - same fetches, same anchors, same
   delays, same evictions, same order - for every driver-based
   scheduler across the conformance fuzzer's tiered corpus plus a
   scale-ish smoke, with stall accounting cross-checked through the
   executor.

   Also the unit tests for Evict_heap's lazy invalidation. *)

(* Schedulers under test.  Delay at several d (0 = Aggressive's twin,
   large = Conservative-ish), Online at several lookaheads; the parallel
   entries only run on multi-disk instances, the single-disk-only ones
   skip them. *)
let single_disk_algorithms =
  Ck_seed.
    [ aggressive;
      conservative;
      delay 0;
      delay 1;
      delay 3;
      combination;
      online (Online.aggressive ~lookahead:1);
      online (Online.aggressive ~lookahead:4);
      online (Online.aggressive ~lookahead:8);
      (* Delayed online variants exercise the production rule's class-B
         window (blocks referenced inside [i, i+d') only) against the
         seed score-everything fold. *)
      online Online.{ lookahead = 4; delay = 2 };
      online Online.{ lookahead = 8; delay = 1 };
      online Online.{ lookahead = 8; delay = 3 } ]

let any_disk_algorithms = Ck_seed.[ fixed_horizon; reverse_aggressive ]
let parallel_algorithms = Ck_seed.[ aggressive_d; conservative_d ]

let algorithms_for (inst : Instance.t) =
  if inst.Instance.num_disks = 1 then single_disk_algorithms @ any_disk_algorithms
  else any_disk_algorithms @ parallel_algorithms

let check_rules ~descr inst rules =
  List.iter
    (fun (rule : Ck_seed.rule) ->
       (match Ck_seed.check inst [ rule ] with
        | Ck_oracle.Fail { msg; _ } -> Alcotest.failf "%s: %s" descr msg
        | Ck_oracle.Pass | Ck_oracle.Skip _ -> ());
       (* Replay sanity: the shared schedule must be executor-valid. *)
       match Simulate.run inst (rule.Ck_seed.schedule inst) with
       | Ok _ -> ()
       | Error e ->
         Alcotest.failf "%s: %s invalid at t=%d: %s" descr rule.Ck_seed.name e.Simulate.at_time
           e.Simulate.reason)
    rules

let check_instance ~descr inst = check_rules ~descr inst (algorithms_for inst)

(* The ck_gen tiered corpus: deterministic cases cycling Tiny / Single /
   Parallel, exactly what ipc fuzz feeds its oracles. *)
let test_corpus_equivalence () =
  for index = 0 to 89 do
    let case = Ck_gen.generate ~seed:7 ~index in
    check_instance
      ~descr:(Printf.sprintf "case %d (%s)" index case.Ck_gen.descr)
      case.Ck_gen.inst
  done

(* Medium-size single-disk instances: large enough for real frontier
   movement, eviction-heap churn and long stall runs, small enough that
   the seed loop's per-instant scans stay fast. *)
let test_medium_equivalence () =
  List.iter
    (fun (fam : Workload.family) ->
       List.iter
         (fun (k, f) ->
            let seq = fam.Workload.generate ~seed:5 ~n:2_000 ~num_blocks:64 in
            let inst = Workload.single_instance ~k ~fetch_time:f seq in
            check_instance
              ~descr:(Printf.sprintf "%s n=2000 k=%d F=%d" fam.Workload.name k f)
              inst)
         [ (4, 7); (16, 4) ])
    Workload.scale_families

(* The paper's own lower-bound family: adversarial for Aggressive's
   eviction choice, so a good frontier-clamping stress. *)
let test_theorem2_equivalence () =
  let inst = Workload.theorem2_lower_bound ~k:9 ~fetch_time:3 ~phases:12 in
  check_instance ~descr:"theorem2 k=9 F=3" inst

(* Delayed online used to livelock here: with the victim scored from
   i + d' only, it evicted the block the cursor was stalled on and
   ping-ponged blocks 0/1 through the k = 1 cache forever.  The
   consistency gate (victim's next visible request from the cursor must
   land past the miss) makes it terminate; production and the seed rule
   must still agree and the executor must accept the schedule. *)
let test_online_delay_livelock () =
  let inst =
    Instance.single_disk ~k:1 ~fetch_time:2 ~initial_cache:[ 0 ]
      [| 0; 1; 0; 1; 0; 1 |]
  in
  check_rules ~descr:"livelock family" inst
    (List.map
       (fun (la, dl) -> Ck_seed.online Online.{ lookahead = la; delay = dl })
       [ (4, 2); (2, 1); (8, 3); (1, 0) ])

(* Driver-level stall accounting must agree with the seed loop too (the
   schedules being equal makes it so unless the event-skipping clock
   miscounts bulk stalls). *)
let test_stall_accounting () =
  let inst =
    Workload.single_instance ~k:6 ~fetch_time:9
      (Workload.sequential_scan ~n:500 ~num_blocks:50)
  in
  let fast = Driver.run inst ~decide:Aggressive.decide in
  let seed = Ck_seed.run inst ~decide:Aggressive.decide in
  Alcotest.(check int) "stall" (Driver.stall_time seed) (Driver.stall_time fast);
  Alcotest.(check int) "elapsed clock" (Driver.time seed) (Driver.time fast);
  match Simulate.run inst (Driver.schedule fast) with
  | Ok s -> Alcotest.(check int) "executor stall" s.Simulate.stall_time (Driver.stall_time fast)
  | Error e -> Alcotest.failf "invalid: %s" e.Simulate.reason

(* ------------------------------------------------------------------ *)
(* Evict_heap unit tests. *)

(* The top entry as (block, key), or None. *)
let top_pair h =
  let b = Evict_heap.top h in
  if b < 0 then None else Some (b, Evict_heap.key_of h b)

let test_heap_basic () =
  let h = Evict_heap.create ~num_blocks:8 in
  Alcotest.(check (option (pair int int))) "empty" None (top_pair h);
  Evict_heap.add h ~block:3 ~key:10;
  Evict_heap.add h ~block:1 ~key:25;
  Evict_heap.add h ~block:5 ~key:17;
  Alcotest.(check (option (pair int int))) "max" (Some (1, 25)) (top_pair h);
  Evict_heap.remove h ~block:1;
  Alcotest.(check (option (pair int int))) "after remove" (Some (5, 17)) (top_pair h);
  Alcotest.(check int) "live" 2 (Evict_heap.size h);
  Alcotest.(check bool) "mem" false (Evict_heap.mem h 1);
  Alcotest.(check int) "key_of" 10 (Evict_heap.key_of h 3)

let test_heap_tie_break () =
  (* Equal keys resolve towards the smallest block id - the seed scan's
     tie-break, load-bearing for byte-identical schedules. *)
  let h = Evict_heap.create ~num_blocks:8 in
  Evict_heap.add h ~block:6 ~key:9;
  Evict_heap.add h ~block:2 ~key:9;
  Evict_heap.add h ~block:4 ~key:9;
  Alcotest.(check (option (pair int int))) "smallest id wins" (Some (2, 9)) (top_pair h)

let test_heap_lazy_invalidation () =
  let h = Evict_heap.create ~num_blocks:4 in
  Evict_heap.add h ~block:0 ~key:5;
  Evict_heap.add h ~block:1 ~key:9;
  (* Re-keying pushes a fresh entry and leaves the old one in place...  *)
  Evict_heap.add h ~block:1 ~key:2;
  Evict_heap.add h ~block:0 ~key:7;
  Alcotest.(check int) "stale entries accumulate" 4 (Evict_heap.heap_load h);
  Alcotest.(check int) "but live count tracks blocks" 2 (Evict_heap.size h);
  (* ... and top discards the superseded top (0,5)/(1,9) lazily. *)
  Alcotest.(check (option (pair int int))) "top sees only live keys" (Some (0, 7)) (top_pair h);
  Alcotest.(check bool) "stale top collected" true (Evict_heap.heap_load h < 4);
  Evict_heap.remove h ~block:0;
  Alcotest.(check (option (pair int int))) "removal is lazy too" (Some (1, 2)) (top_pair h);
  Evict_heap.remove h ~block:1;
  Alcotest.(check (option (pair int int))) "drained" None (top_pair h);
  Alcotest.(check int) "no live entries" 0 (Evict_heap.size h)

let test_heap_rejects_negative_keys () =
  (* -1 is the internal no-live-entry sentinel; a negative key once made
     an Online recency entry unremovable (livelocked top_a).  No caller
     can produce one, so the heap refuses with a typed internal error
     naming the block and the key, and keeps its state. *)
  let h = Evict_heap.create ~num_blocks:4 in
  Evict_heap.add h ~block:2 ~key:5;
  Alcotest.check_raises "negative key"
    (Simulate.Internal_error { component = "evict_heap"; reason = "add of b1 with negative key -1" })
    (fun () -> Evict_heap.add h ~block:1 ~key:(-1));
  Alcotest.(check int) "live unchanged" 1 (Evict_heap.size h);
  Alcotest.(check bool) "rejected block absent" false (Evict_heap.mem h 1);
  Alcotest.(check (option (pair int int))) "top unchanged" (Some (2, 5)) (top_pair h)

let test_heap_compaction () =
  (* Serve-style churn: re-key one block thousands of times without
     querying the top.  Compaction must keep the physical heap O(live), not O(m). *)
  let h = Evict_heap.create ~num_blocks:4 in
  Evict_heap.add h ~block:2 ~key:1_000_000;
  for i = 0 to 9_999 do
    Evict_heap.add h ~block:0 ~key:i
  done;
  Alcotest.(check bool) "heap stays compact"
    true (Evict_heap.heap_load h <= 64 * 2);
  Alcotest.(check (option (pair int int))) "top correct after churn"
    (Some (2, 1_000_000)) (top_pair h)

let test_heap_widen () =
  (* A stream's block ids outgrow the heap: widening keeps every entry,
     its stamp and the counters, and admits the new ids. *)
  let h = Evict_heap.create ~num_blocks:2 in
  Evict_heap.add h ~block:0 ~key:5;
  Evict_heap.add h ~block:1 ~key:9;
  Evict_heap.add h ~block:1 ~key:3;
  Evict_heap.widen h ~num_blocks:8;
  Alcotest.(check (option (pair int int))) "entries kept" (Some (0, 5)) (top_pair h);
  Evict_heap.add h ~block:7 ~key:6;
  Alcotest.(check (option (pair int int))) "new id admitted" (Some (7, 6)) (top_pair h);
  Alcotest.(check int) "live" 3 (Evict_heap.size h);
  Alcotest.(check int) "pushes counted across the widen" 4 (Evict_heap.pushes h)

let () =
  Alcotest.run "driver-equiv"
    [ ("fast-vs-reference",
       [ Alcotest.test_case "ck_gen corpus, all schedulers" `Quick test_corpus_equivalence;
         Alcotest.test_case "medium scale families" `Quick test_medium_equivalence;
         Alcotest.test_case "theorem-2 family" `Quick test_theorem2_equivalence;
         Alcotest.test_case "online delay livelock family" `Quick test_online_delay_livelock;
         Alcotest.test_case "stall accounting" `Quick test_stall_accounting ]);
      ("evict-heap",
       [ Alcotest.test_case "basic order" `Quick test_heap_basic;
         Alcotest.test_case "tie-break towards smaller id" `Quick test_heap_tie_break;
         Alcotest.test_case "lazy invalidation" `Quick test_heap_lazy_invalidation;
         Alcotest.test_case "rejects negative keys" `Quick test_heap_rejects_negative_keys;
         Alcotest.test_case "compaction bounds the heap" `Quick test_heap_compaction;
         Alcotest.test_case "widen keeps entries" `Quick test_heap_widen ]) ]
