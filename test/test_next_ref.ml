(* qcheck properties for the PR-5 fast-path primitives that previously
   had only indirect coverage: Next_ref's binary-search queries
   (prev_before in particular, which Conservative/Delay/Online lean on)
   and the driver's monotone next-missing frontier, each checked against
   a naive O(n) scan on random traces. *)

let gen_trace =
  QCheck2.Gen.(
    let* num_blocks = int_range 2 12 in
    let* n = int_range 1 120 in
    let* seq = array_size (return n) (int_range 0 (num_blocks - 1)) in
    return (num_blocks, seq))

(* --- Next_ref vs naive scans ------------------------------------------ *)

let naive_prev_before seq b pos =
  let r = ref (-1) in
  for p = 0 to Stdlib.min (pos - 1) (Array.length seq - 1) do
    if seq.(p) = b then r := p
  done;
  !r

let naive_next_at_or_after seq b pos =
  let n = Array.length seq in
  let r = ref n in
  for p = n - 1 downto Stdlib.max 0 pos do
    if seq.(p) = b then r := p
  done;
  if pos >= n then n else !r

let prop_prev_before =
  QCheck2.Test.make ~count:500 ~name:"prev_before = naive backward scan" gen_trace
    (fun (num_blocks, seq) ->
       let nr = Next_ref.build seq ~num_blocks in
       let n = Array.length seq in
       let ok = ref true in
       for b = 0 to num_blocks - 1 do
         (* Positions beyond the end included: callers probe miss
            positions and the sentinel region. *)
         for pos = 0 to n + 2 do
           if Next_ref.prev_before nr b pos <> naive_prev_before seq b pos then
             ok := false
         done
       done;
       !ok)

let prop_next_at_or_after =
  QCheck2.Test.make ~count:500 ~name:"next_at_or_after = naive forward scan" gen_trace
    (fun (num_blocks, seq) ->
       let nr = Next_ref.build seq ~num_blocks in
       let n = Array.length seq in
       let ok = ref true in
       for b = 0 to num_blocks - 1 do
         for pos = 0 to n do
           if Next_ref.next_at_or_after nr b pos <> naive_next_at_or_after seq b pos then
             ok := false
         done
       done;
       !ok)

let prop_queries_consistent =
  QCheck2.Test.make ~count:300 ~name:"next_after_same / prev_before round-trip" gen_trace
    (fun (num_blocks, seq) ->
       let nr = Next_ref.build seq ~num_blocks in
       let n = Array.length seq in
       let ok = ref true in
       for i = 0 to n - 1 do
         let b = seq.(i) in
         (* The request at i is the last occurrence of b before i + 1... *)
         if Next_ref.prev_before nr b (i + 1) <> i then ok := false;
         (* ... and next_after_same skips exactly to the next one. *)
         let nx = Next_ref.next_after_same nr i in
         if nx <> naive_next_at_or_after seq b (i + 1) then ok := false
       done;
       !ok)

(* --- Monotone next-missing frontier ----------------------------------- *)

(* Check the frontier in situ: wrap a real scheduler's decide so every
   invocation first compares Driver.next_missing (fast engine: monotone
   frontier with eviction clamping) against a naive scan over the
   cursor suffix.  Running inside a live Aggressive/Aggressive-D
   timeline exercises exactly the advance/clamp pattern the frontier
   optimizes. *)
exception Frontier_diverged of string

let checked_decide base d =
  let inst = Driver.instance d in
  let n = Instance.length inst in
  let naive =
    let r = ref None in
    (try
       for p = Driver.cursor d to n - 1 do
         let b = inst.Instance.seq.(p) in
         if (not (Driver.in_cache d b)) && not (Driver.block_in_flight d b) then begin
           r := Some p;
           raise Exit
         end
       done
     with Exit -> ());
    !r
  in
  let naive = match naive with None -> -1 | Some j -> j in
  if Driver.next_missing d <> naive then
    raise
      (Frontier_diverged
         (Printf.sprintf "cursor=%d frontier=%d naive=%d" (Driver.cursor d)
            (Driver.next_missing d) naive));
  base d

let gen_single_instance =
  QCheck2.Gen.(
    let* num_blocks, seq = gen_trace in
    let* k = int_range 1 (Stdlib.min 6 num_blocks) in
    let* f = int_range 1 9 in
    return (Workload.single_instance ~k ~fetch_time:f seq))

let prop_frontier_single =
  QCheck2.Test.make ~count:300 ~name:"next_missing frontier = naive scan (single disk)"
    gen_single_instance
    (fun inst ->
       ignore (Driver.run inst ~decide:(checked_decide Aggressive.decide));
       true)

let gen_parallel_instance =
  QCheck2.Gen.(
    let* num_blocks, seq = gen_trace in
    let* num_disks = int_range 2 3 in
    let* disk_of = array_size (return num_blocks) (int_range 0 (num_disks - 1)) in
    let* k = int_range 1 (Stdlib.min 6 num_blocks) in
    let* f = int_range 1 9 in
    return
      (Instance.parallel ~k ~fetch_time:f ~num_disks ~disk_of
         ~initial_cache:(Instance.warm_initial_cache ~k seq) seq))

let prop_frontier_parallel =
  QCheck2.Test.make ~count:200 ~name:"next_missing frontier = naive scan (parallel)"
    gen_parallel_instance
    (fun inst ->
       ignore (Driver.run inst ~decide:(checked_decide Parallel_greedy.aggressive_decide));
       true)

let () =
  Alcotest.run "next-ref"
    [ ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_prev_before; prop_next_at_or_after; prop_queries_consistent;
           prop_frontier_single; prop_frontier_parallel ]) ]
