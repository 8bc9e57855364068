(* Tests for the pure paging substrate (MIN/LRU/FIFO). *)

let inst ?(k = 3) ?init seq =
  let initial_cache =
    match init with Some l -> l | None -> Instance.warm_initial_cache ~k seq
  in
  Instance.single_disk ~k ~fetch_time:1 ~initial_cache seq

(* Classic MIN example: with k = 3 and the sequence below, Belady's choices
   are forced and well known. *)
let test_min_textbook () =
  (* seq: 0 1 2 3 0 1 4 0 1 2 3 4 with k=3 cold-ish start *)
  let i = inst ~k:3 ~init:[ 0; 1; 2 ] [| 0; 1; 2; 3; 0; 1; 4; 0; 1; 2; 3; 4 |] in
  let r = Paging.min_offline i in
  (* Misses: 3 (evict 2: next refs 0@4,1@5,2@9 -> evict furthest=2);
     4 (at pos 6: cache {0,1,3}: next 0@7 1@8 3@10 -> evict 3);
     2 (at pos 9: cache {0,1,4}: 0 never, 1 never... 0,1 not requested
     again; tie -> evict smaller id 0);
     3 (pos 10: cache {1,2,4}? after fetching 2 evicting 0:
     {1,2,4}: 1 never, 4@11 -> evict 1);
     total 4 misses. *)
  Alcotest.(check int) "misses" 4 r.Paging.misses;
  let evs = List.map (fun (x : Paging.replacement) -> (x.position, x.fetched, x.evicted)) r.Paging.replacements in
  Alcotest.(check bool) "first replacement evicts 2" true
    (List.mem (3, 3, Some 2) evs);
  Alcotest.(check bool) "second replacement evicts 3" true
    (List.mem (6, 4, Some 3) evs)

let test_min_no_misses () =
  let i = inst ~k:2 ~init:[ 0; 1 ] [| 0; 1; 0; 1; 1; 0 |] in
  Alcotest.(check int) "no misses" 0 (Paging.min_offline i).Paging.misses

let test_min_cold_start () =
  let i = inst ~k:2 ~init:[] [| 0; 1; 0 |] in
  let r = Paging.min_offline i in
  Alcotest.(check int) "2 misses" 2 r.Paging.misses;
  (* Cache not full: no evictions. *)
  Alcotest.(check bool) "no evictions" true
    (List.for_all (fun (x : Paging.replacement) -> x.evicted = None) r.Paging.replacements)

let test_lru_loop_worst_case () =
  (* Loop of k+1 blocks: LRU misses every request after warmup, MIN does
     much better. *)
  let seq = Workload.loop_pattern ~n:40 ~loop_len:4 in
  let i = inst ~k:3 ~init:[ 0; 1; 2 ] seq in
  let lru = (Paging.lru i).Paging.misses in
  let min = (Paging.min_offline i).Paging.misses in
  Alcotest.(check bool) (Printf.sprintf "lru %d >= 2 * min %d" lru min) true (lru >= 2 * min);
  (* LRU on this pattern faults on every request once past warmup. *)
  Alcotest.(check bool) "lru thrashes" true (lru >= 36)

let test_fifo_basic () =
  let i = inst ~k:2 ~init:[ 0; 1 ] [| 2; 0; 1 |] in
  let r = Paging.fifo i in
  (* FIFO evicts 0 (inserted first), then 1, then 2: every request misses. *)
  Alcotest.(check int) "misses" 3 r.Paging.misses

(* Properties: MIN is optimal (never more misses than LRU/FIFO); all
   policies produce consistent replacement logs. *)

let gen_paging_instance =
  QCheck2.Gen.(
    let* nblocks = int_range 2 8 in
    let* n = int_range 1 60 in
    let* seq = array_size (return n) (int_range 0 (nblocks - 1)) in
    let* k = int_range 1 5 in
    return (inst ~k seq))

let prop_min_optimal =
  QCheck2.Test.make ~count:400 ~name:"MIN <= LRU and MIN <= FIFO" gen_paging_instance
    (fun i ->
       let m = (Paging.min_offline i).Paging.misses in
       m <= (Paging.lru i).Paging.misses && m <= (Paging.fifo i).Paging.misses)

(* Replaying a policy's replacement log must serve every request. *)
let replay (i : Instance.t) (r : Paging.result) : bool =
  let num_blocks = Instance.num_blocks i in
  let in_cache = Array.make num_blocks false in
  List.iter (fun b -> in_cache.(b) <- true) i.Instance.initial_cache;
  let count = ref (List.length i.Instance.initial_cache) in
  let reps = ref r.Paging.replacements in
  let ok = ref true in
  Array.iteri
    (fun pos b ->
       (match !reps with
        | rep :: rest when rep.Paging.position = pos ->
          if rep.Paging.fetched <> b then ok := false;
          (match rep.Paging.evicted with
           | Some e ->
             if not in_cache.(e) then ok := false;
             in_cache.(e) <- false;
             decr count
           | None -> ());
          in_cache.(b) <- true;
          incr count;
          if !count > i.Instance.cache_size then ok := false;
          reps := rest
        | _ -> ());
       if not in_cache.(b) then ok := false)
    i.Instance.seq;
  !ok && !reps = []

let prop_replay_consistent =
  QCheck2.Test.make ~count:300 ~name:"replacement logs replay cleanly" gen_paging_instance
    (fun i ->
       replay i (Paging.min_offline i) && replay i (Paging.lru i) && replay i (Paging.fifo i))

(* MIN's miss count equals Conservative's fetch count (by construction). *)
let prop_min_matches_conservative =
  QCheck2.Test.make ~count:200 ~name:"MIN misses = Conservative fetches" gen_paging_instance
    (fun i -> (Paging.min_offline i).Paging.misses = Conservative.num_fetches i)

(* The heap-based MIN (Conservative plans through it) must reproduce the
   per-miss scan oracle exactly - every replacement, every eviction, the
   final cache - not just the miss count. *)
let prop_min_fast_identical =
  QCheck2.Test.make ~count:400 ~name:"min_offline = Ck_seed.min_scan" gen_paging_instance
    (fun i -> Paging.min_offline i = Ck_seed.min_scan i)

let test_clock_second_chance () =
  (* Hand-traced: k = 2, frames [0; 1], seq 0 1 2 1 3.
     r3 (miss on 2): both bits set, the hand clears 0 then 1 and returns to
     frame 0, evicting 0 -> frames [2; 1], hand at frame 1; the inserted
     block 2 gets its bit set.
     r4: hit on 1 (sets its bit again).
     r5 (miss on 3): hand clears 1, then clears 2, and returns to frame 1
     whose bit is now clear -> evicts 1 -> frames [2; 3]. *)
  let i = inst ~k:2 ~init:[ 0; 1 ] [| 0; 1; 2; 1; 3 |] in
  let r = Paging.clock i in
  Alcotest.(check int) "misses" 2 r.Paging.misses;
  let evs = List.map (fun (x : Paging.replacement) -> (x.position, x.fetched, x.evicted)) r.Paging.replacements in
  Alcotest.(check bool) "evicts 0 then 1" true
    (evs = [ (2, 2, Some 0); (4, 3, Some 1) ])

let test_marking_deterministic_with_seed () =
  let i = inst ~k:3 [| 0; 1; 2; 3; 4; 0; 1; 2; 3; 4; 0; 1 |] in
  let a = Paging.marking ~seed:5 i and b = Paging.marking ~seed:5 i in
  Alcotest.(check int) "same misses" a.Paging.misses b.Paging.misses;
  Alcotest.(check bool) "same replacements" true (a.Paging.replacements = b.Paging.replacements)

let prop_min_optimal_vs_all =
  QCheck2.Test.make ~count:300 ~name:"MIN <= CLOCK and MIN <= MARKING" gen_paging_instance
    (fun i ->
       let m = (Paging.min_offline i).Paging.misses in
       m <= (Paging.clock i).Paging.misses && m <= (Paging.marking ~seed:7 i).Paging.misses)

let prop_replay_clock_marking =
  QCheck2.Test.make ~count:200 ~name:"CLOCK/MARKING logs replay cleanly" gen_paging_instance
    (fun i -> replay i (Paging.clock i) && replay i (Paging.marking ~seed:3 i))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_min_optimal; prop_replay_consistent; prop_min_matches_conservative;
      prop_min_fast_identical; prop_min_optimal_vs_all; prop_replay_clock_marking ]

let () =
  Alcotest.run "paging"
    [ ( "unit",
        [ Alcotest.test_case "MIN textbook" `Quick test_min_textbook;
          Alcotest.test_case "MIN no misses" `Quick test_min_no_misses;
          Alcotest.test_case "MIN cold start" `Quick test_min_cold_start;
          Alcotest.test_case "LRU loop worst case" `Quick test_lru_loop_worst_case;
          Alcotest.test_case "FIFO basic" `Quick test_fifo_basic;
          Alcotest.test_case "CLOCK second chance" `Quick test_clock_second_chance;
          Alcotest.test_case "MARKING deterministic" `Quick test_marking_deterministic_with_seed ] );
      ("properties", props) ]
