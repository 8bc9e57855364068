(* Tests for the extension modules: limited-lookahead online algorithms
   (Section 4's open problem) and the Reverse-Aggressive baseline. *)

let gen_single =
  QCheck2.Gen.(
    let* nblocks = int_range 2 8 in
    let* n = int_range 1 30 in
    let* seq = array_size (return n) (int_range 0 (nblocks - 1)) in
    let* k = int_range 1 5 in
    let* f = int_range 1 5 in
    let init = Instance.warm_initial_cache ~k seq in
    return (Instance.single_disk ~k ~fetch_time:f ~initial_cache:init seq))

let gen_parallel =
  QCheck2.Gen.(
    let* d = int_range 1 3 in
    let* nblocks = int_range 2 8 in
    let* n = int_range 1 25 in
    let* seq = array_size (return n) (int_range 0 (nblocks - 1)) in
    let* k = int_range 2 5 in
    let* f = int_range 1 4 in
    let num_blocks = Array.fold_left Stdlib.max 0 seq + 1 in
    let disk_of = Workload.striped_layout ~num_blocks ~num_disks:d in
    let init = Instance.warm_initial_cache ~k seq in
    return (Instance.parallel ~k ~fetch_time:f ~num_disks:d ~disk_of ~initial_cache:init seq))

(* Online schedules are always valid. *)
let prop_online_valid =
  QCheck2.Test.make ~count:300 ~name:"online schedules valid"
    QCheck2.Gen.(pair gen_single (int_range 1 12))
    (fun (inst, lookahead) ->
       match Simulate.run inst (Online.schedule (Online.aggressive ~lookahead) inst) with
       | Ok _ -> true
       | Error e ->
         QCheck2.Test.fail_reportf "rejected: %s on %s" e.Simulate.reason
           (Format.asprintf "%a" Instance.pp inst))

(* With full lookahead and delay 0, Online behaves like offline Aggressive
   up to tie-breaking among dead (never-requested-again) eviction victims,
   which cannot affect stall time. *)
let prop_online_full_lookahead_is_aggressive =
  QCheck2.Test.make ~count:300 ~name:"online full lookahead = Aggressive stall" gen_single
    (fun inst ->
       let n = Instance.length inst in
       Online.stall_time (Online.aggressive ~lookahead:(Stdlib.max 1 n)) inst
       = Aggressive.stall_time inst)

(* Online never beats the offline optimum. *)
let prop_online_above_opt =
  QCheck2.Test.make ~count:200 ~name:"online >= OPT"
    QCheck2.Gen.(pair gen_single (int_range 1 12))
    (fun (inst, lookahead) ->
       Online.stall_time (Online.aggressive ~lookahead) inst >= (Opt.solve_single inst).Opt.stall)

(* More lookahead on a pure scan is never (much) worse: exact monotonicity
   does not hold pointwise, but on scans the benefit is strict. *)
let test_online_scan_lookahead_helps () =
  let seq = Workload.sequential_scan ~n:60 ~num_blocks:12 in
  let inst = Workload.single_instance ~k:4 ~fetch_time:4 seq in
  let stall l = Online.stall_time (Online.aggressive ~lookahead:l) inst in
  let s1 = stall 1 and s4 = stall 4 and s16 = stall 16 and s60 = stall 60 in
  Alcotest.(check bool) (Printf.sprintf "1:%d >= 4:%d >= 16:%d >= 60:%d" s1 s4 s16 s60) true
    (s1 >= s4 && s4 >= s16 && s16 >= s60);
  Alcotest.(check bool) "lookahead strictly helps on scans" true (s16 < s1)

(* Reverse-Aggressive is valid and never beats OPT. *)
let prop_reverse_valid_above_opt =
  QCheck2.Test.make ~count:150 ~name:"reverse aggressive valid, >= OPT" gen_parallel
    (fun inst ->
       match Simulate.run inst (Reverse_aggressive.schedule inst) with
       | Error e ->
         QCheck2.Test.fail_reportf "rejected: %s on %s" e.Simulate.reason
           (Format.asprintf "%a" Instance.pp inst)
       | Ok s ->
         if Instance.length inst <= 10 && Instance.num_blocks inst <= 8 then
           s.Simulate.stall_time >= (Opt.solve_parallel inst).Opt.stall
         else true)

let test_reverse_on_example2 () =
  let inst =
    Instance.parallel ~k:4 ~fetch_time:4 ~num_disks:2
      ~disk_of:[| 0; 0; 0; 0; 1; 1; 1 |]
      ~initial_cache:[ 0; 1; 4; 5 ]
      [| 0; 1; 4; 5; 2; 6; 3 |]
  in
  let s = Reverse_aggressive.stall_time inst in
  Alcotest.(check bool) (Printf.sprintf "stall %d within [3, 20]" s) true (s >= 3 && s <= 20)

(* Fixed Horizon is valid, never beats OPT, and each of its fetches costs
   at most F stall (it may fetch more blocks than MIN misses, so demand
   paging is NOT an upper bound in general). *)
let prop_fixed_horizon_sound =
  QCheck2.Test.make ~count:200 ~name:"fixed horizon valid, OPT <= FH <= F * fetches" gen_single
    (fun inst ->
       let sched = Fixed_horizon.schedule inst in
       match Simulate.run inst sched with
       | Error e ->
         QCheck2.Test.fail_reportf "rejected: %s on %s" e.Simulate.reason
           (Format.asprintf "%a" Instance.pp inst)
       | Ok s ->
         s.Simulate.stall_time >= (Opt.solve_single inst).Opt.stall
         && s.Simulate.stall_time <= inst.Instance.fetch_time * List.length sched)

(* On a pure scan with F <= k - 1, just-in-time fetching is stall-free
   after the warmup fetch pipeline settles. *)
let test_fixed_horizon_scan () =
  let seq = Workload.sequential_scan ~n:80 ~num_blocks:16 in
  let inst = Workload.single_instance ~k:8 ~fetch_time:4 seq in
  let fh = Fixed_horizon.stall_time inst in
  let agg = Aggressive.stall_time inst in
  Alcotest.(check bool) (Printf.sprintf "fh %d within 2x aggressive %d" fh agg) true
    (fh <= Stdlib.max (2 * agg) (agg + inst.Instance.fetch_time))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_online_valid; prop_online_full_lookahead_is_aggressive; prop_online_above_opt;
      prop_reverse_valid_above_opt; prop_fixed_horizon_sound ]

let () =
  Alcotest.run "extensions"
    [ ( "unit",
        [ Alcotest.test_case "scan lookahead helps" `Quick test_online_scan_lookahead_helps;
          Alcotest.test_case "fixed horizon on scans" `Quick test_fixed_horizon_scan;
          Alcotest.test_case "reverse aggressive example 2" `Quick test_reverse_on_example2 ] );
      ("properties", props) ]
