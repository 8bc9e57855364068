(* Tests for the disk-system executor, anchored on the two worked examples
   in the introduction of Albers & Buettner (2005):

   Example 1 (single disk): sigma = b1 b2 b3 b4 b4 b5 b1 b4 b4 b2, k = 4,
   F = 4, initial cache {b1..b4}.  The naive schedule stalls 3 units
   (elapsed 13); the better schedule stalls 1 unit (elapsed 11).

   Example 2 (two disks): b1..b4 on disk 1, c1..c3 on disk 2, k = 4, F = 4,
   sigma = b1 b2 c1 c2 b3 c3 b4, initial cache {b1, b2, c1, c2}: the
   schedule described in the paper stalls exactly 3 units. *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec loop i = i + ln <= lh && (String.sub hay i ln = needle || loop (i + 1)) in
  loop 0

let fetch = Fetch_op.make

let ok_stats = function
  | Ok (s : Simulate.stats) -> s
  | Error (e : Simulate.error) ->
    Alcotest.failf "schedule rejected at t=%d: %s" e.Simulate.at_time e.Simulate.reason

let reject = function
  | Ok (_ : Simulate.stats) -> Alcotest.fail "schedule unexpectedly accepted"
  | Error (e : Simulate.error) -> e.Simulate.reason

(* Example 1: blocks b1..b5 are 0..4. *)
let example1 () =
  Instance.single_disk ~k:4 ~fetch_time:4 ~initial_cache:[ 0; 1; 2; 3 ]
    [| 0; 1; 2; 3; 3; 4; 0; 3; 3; 1 |]

let test_example1_naive () =
  let inst = example1 () in
  (* Fetch b5 at the request to b2 evicting b1; then fetch b1 back
     (evicting b3) as soon as the disk is free. *)
  let schedule =
    [ fetch ~at_cursor:1 ~block:4 ~evict:(Some 0) ();
      fetch ~at_cursor:5 ~block:0 ~evict:(Some 2) () ]
  in
  let s = ok_stats (Simulate.run ~record_events:true inst schedule) in
  Alcotest.(check int) "stall" 3 s.Simulate.stall_time;
  Alcotest.(check int) "elapsed" 13 s.Simulate.elapsed_time;
  Alcotest.(check int) "fetches" 2 s.Simulate.fetches_completed

let test_example1_better () =
  let inst = example1 () in
  (* Fetch b5 at the request to b3 evicting b2 (1 stall unit), then fetch
     b2 back without stall: start the moment the disk frees up (during the
     service of b5, i.e. anchor at cursor 5 with one unit of delay). *)
  let schedule =
    [ fetch ~at_cursor:2 ~block:4 ~evict:(Some 1) ();
      fetch ~at_cursor:5 ~delay:1 ~block:1 ~evict:(Some 2) () ]
  in
  let s = ok_stats (Simulate.run inst schedule) in
  Alcotest.(check int) "stall" 1 s.Simulate.stall_time;
  Alcotest.(check int) "elapsed" 11 s.Simulate.elapsed_time

let test_example1_no_fetch_deadlock () =
  let inst = example1 () in
  let reason = reject (Simulate.run inst []) in
  Alcotest.(check bool) "mentions missing block" true
    (String.length reason > 0)

(* Example 2: b1..b4 = blocks 0..3 on disk 0; c1..c3 = blocks 4..6 on disk 1. *)
let example2 () =
  Instance.parallel ~k:4 ~fetch_time:4 ~num_disks:2
    ~disk_of:[| 0; 0; 0; 0; 1; 1; 1 |]
    ~initial_cache:[ 0; 1; 4; 5 ]
    [| 0; 1; 4; 5; 2; 6; 3 |]

let test_example2_paper_schedule () =
  let inst = example2 () in
  let schedule =
    [ (* disk 1 fetches b3 at the request to b2, evicting b1 *)
      fetch ~at_cursor:1 ~disk:0 ~block:2 ~evict:(Some 0) ();
      (* disk 2 fetches c3 one request later, evicting b2 *)
      fetch ~at_cursor:2 ~disk:1 ~block:6 ~evict:(Some 1) ();
      (* disk 1 starts its second fetch (b4) at the request to b3, i.e. one
         unit after the cursor reached 4 (the stall unit), evicting c1 *)
      fetch ~at_cursor:4 ~delay:1 ~disk:0 ~block:3 ~evict:(Some 4) () ]
  in
  let s = ok_stats (Simulate.run ~record_events:true inst schedule) in
  Alcotest.(check int) "stall" 3 s.Simulate.stall_time;
  Alcotest.(check int) "elapsed" 10 s.Simulate.elapsed_time;
  Alcotest.(check int) "fetches" 3 s.Simulate.fetches_completed

let test_example2_parallel_overlap () =
  (* The two fetches overlap in time; the stall unit before b3 benefits the
     c3 fetch on the other disk (that is the point of the example). *)
  let inst = example2 () in
  let schedule =
    [ fetch ~at_cursor:1 ~disk:0 ~block:2 ~evict:(Some 0) ();
      fetch ~at_cursor:2 ~disk:1 ~block:6 ~evict:(Some 1) ();
      fetch ~at_cursor:4 ~delay:1 ~disk:0 ~block:3 ~evict:(Some 4) () ]
  in
  let s = ok_stats (Simulate.run ~record_events:true inst schedule) in
  (* c3 is served with no stall unit directly before it: check via events
     that no stall occurs at cursor position 5 (after b3 was served). *)
  let stall_times =
    List.filter_map
      (function Simulate.Stall { time } -> Some time | _ -> None)
      s.Simulate.events
  in
  Alcotest.(check (list int)) "stalls at t=4 (before b3) and t=7,8 (before b4)"
    [ 4; 7; 8 ] stall_times

(* ------------------------------------------------------------------ *)
(* Executor error detection. *)

let test_reject_busy_disk () =
  let inst = example1 () in
  let schedule =
    [ fetch ~at_cursor:1 ~block:4 ~evict:(Some 0) ();
      (* second fetch two time units later while the disk is still busy *)
      fetch ~at_cursor:3 ~block:0 ~evict:(Some 2) () ]
  in
  let reason = reject (Simulate.run inst schedule) in
  Alcotest.(check bool) "busy disk" true
    (contains reason "busy")

let test_reject_fetch_cached_block () =
  let inst = example1 () in
  let schedule = [ fetch ~at_cursor:0 ~block:0 ~evict:(Some 1) () ] in
  let reason = reject (Simulate.run inst schedule) in
  Alcotest.(check bool) "already in cache" true
    (contains reason "already in cache")

let test_reject_evict_absent () =
  let inst = example1 () in
  let schedule = [ fetch ~at_cursor:0 ~block:4 ~evict:(Some 4) () ] in
  ignore (reject (Simulate.run inst schedule))

(* The _exn wrappers must raise the typed exception (with the rejection's
   time step), not a bare Failure. *)
let test_exn_wrappers_raise_typed () =
  let inst = example1 () in
  let bad = [ fetch ~at_cursor:0 ~block:0 ~evict:(Some 1) () ] in
  let check_typed name f =
    match f () with
    | (_ : int) -> Alcotest.failf "%s accepted an invalid schedule" name
    | exception Simulate.Invalid_schedule { algorithm; at_time; reason } ->
      Alcotest.(check string) (name ^ " algorithm tag") "replay" algorithm;
      Alcotest.(check bool) (name ^ " at_time sane") true (at_time >= 0);
      Alcotest.(check bool) (name ^ " reason") true (contains reason "already in cache")
    | exception Failure _ -> Alcotest.failf "%s raised untyped Failure" name
  in
  check_typed "stall_time_exn" (fun () -> Simulate.stall_time_exn inst bad);
  check_typed "elapsed_time_exn" (fun () -> Simulate.elapsed_time_exn inst bad);
  (* The valid-schedule path is unchanged. *)
  Alcotest.(check int) "stall via exn wrapper" 3
    (Simulate.stall_time_exn inst
       [ fetch ~at_cursor:1 ~block:4 ~evict:(Some 0) ();
         fetch ~at_cursor:5 ~block:0 ~evict:(Some 2) () ])

let test_reject_capacity () =
  let inst = example1 () in
  (* Fetch without eviction into a full cache. *)
  let schedule = [ fetch ~at_cursor:0 ~block:4 ~evict:None () ] in
  let reason = reject (Simulate.run inst schedule) in
  Alcotest.(check bool) "capacity" true
    (contains reason "capacity")

let test_extra_slots_allow_overcommit () =
  let inst = example1 () in
  (* With one extra slot no eviction is needed: fetch b5 into the spare
     slot early and the whole sequence runs without stall. *)
  let schedule = [ fetch ~at_cursor:0 ~block:4 ~evict:None () ] in
  let s = ok_stats (Simulate.run ~extra_slots:1 inst schedule) in
  Alcotest.(check int) "zero stall" 0 s.Simulate.stall_time;
  Alcotest.(check int) "peak occupancy uses extra slot" 5 s.Simulate.peak_occupancy

let test_reject_wrong_disk () =
  let inst = example2 () in
  let schedule = [ fetch ~at_cursor:1 ~disk:1 ~block:2 ~evict:(Some 0) () ] in
  let reason = reject (Simulate.run inst schedule) in
  Alcotest.(check bool) "wrong disk" true
    (contains reason "lives on disk")

(* Regression: a schedule must not evict a block while that block's own
   fetch is still in flight.  The residency check happened to reject such
   schedules too (an in-flight block is not yet resident), but the
   executor now names the precise violation. *)
let evict_in_flight_instance () =
  (* blocks 0..2 on disk 0, block 3 on disk 1; k = 2 *)
  Instance.parallel ~k:2 ~fetch_time:4 ~num_disks:2
    ~disk_of:[| 0; 0; 0; 1 |] ~initial_cache:[ 0; 1 ]
    [| 0; 1; 2; 3 |]

let test_reject_evict_in_flight () =
  let inst = evict_in_flight_instance () in
  let schedule =
    [ (* disk 0 fetches b2 (completes at t=4)... *)
      fetch ~at_cursor:0 ~disk:0 ~block:2 ~evict:(Some 0) ();
      (* ...and disk 1 tries to evict b2 at t=1, mid-flight *)
      fetch ~at_cursor:0 ~delay:1 ~disk:1 ~block:3 ~evict:(Some 2) () ]
  in
  let reason = reject (Simulate.run inst schedule) in
  Alcotest.(check bool) "names the in-flight eviction" true
    (contains reason "in-flight fetch window");
  (* Driver.validate surfaces the same rejection as Invalid_schedule. *)
  match Driver.validate ~name:"bad" inst schedule with
  | (_ : Simulate.stats) -> Alcotest.fail "validate unexpectedly accepted"
  | exception Driver.Invalid_schedule { reason; _ } ->
    Alcotest.(check bool) "validate names the in-flight eviction" true
      (contains reason "in-flight fetch window")

let test_evict_at_completion_instant_ok () =
  (* Boundary: completions deposit before starts perform evictions, so
     evicting a block at the exact instant its fetch completes is legal. *)
  let inst =
    Instance.parallel ~k:2 ~fetch_time:2 ~num_disks:2
      ~disk_of:[| 0; 0; 0; 1 |] ~initial_cache:[ 0; 1 ]
      [| 0; 0; 3; 0 |]
  in
  let schedule =
    [ fetch ~at_cursor:0 ~disk:0 ~block:2 ~evict:(Some 1) ();
      (* starts at t=2, the instant b2's fetch deposits: accepted *)
      fetch ~at_cursor:0 ~delay:2 ~disk:1 ~block:3 ~evict:(Some 2) () ]
  in
  let s = ok_stats (Simulate.run inst schedule) in
  Alcotest.(check int) "stall" 2 s.Simulate.stall_time

let test_elapsed_equals_n_plus_stall () =
  let inst = example1 () in
  let schedule =
    [ fetch ~at_cursor:2 ~block:4 ~evict:(Some 1) ();
      fetch ~at_cursor:5 ~delay:1 ~block:1 ~evict:(Some 2) () ]
  in
  let s = ok_stats (Simulate.run inst schedule) in
  Alcotest.(check int) "elapsed = n + stall"
    (Array.length inst.Instance.seq + s.Simulate.stall_time)
    s.Simulate.elapsed_time

(* ------------------------------------------------------------------ *)
(* Instance validation. *)

let test_instance_validation () =
  let check_invalid name f =
    match f () with
    | exception Instance.Invalid _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Invalid")
  in
  check_invalid "zero k" (fun () ->
      Instance.single_disk ~k:0 ~fetch_time:1 ~initial_cache:[] [| 0 |]);
  check_invalid "zero F" (fun () ->
      Instance.single_disk ~k:1 ~fetch_time:0 ~initial_cache:[] [| 0 |]);
  check_invalid "initial cache too large" (fun () ->
      Instance.single_disk ~k:1 ~fetch_time:1 ~initial_cache:[ 0; 1 ] [| 0; 1 |]);
  check_invalid "duplicate initial cache" (fun () ->
      Instance.single_disk ~k:3 ~fetch_time:1 ~initial_cache:[ 0; 0 ] [| 0 |]);
  check_invalid "bad disk map" (fun () ->
      Instance.parallel ~k:2 ~fetch_time:1 ~num_disks:1 ~disk_of:[| 1 |] ~initial_cache:[]
        [| 0 |])

let test_warm_initial_cache () =
  let seq = [| 3; 1; 3; 2; 0; 1 |] in
  Alcotest.(check (list int)) "first distinct" [ 3; 1; 2 ]
    (Instance.warm_initial_cache ~k:3 seq);
  Alcotest.(check (list int)) "k larger than universe" [ 3; 1; 2; 0 ]
    (Instance.warm_initial_cache ~k:10 seq)

(* ------------------------------------------------------------------ *)
(* Next-reference oracle. *)

let test_next_ref () =
  let seq = [| 0; 1; 0; 2; 1; 0 |] in
  let nr = Next_ref.build seq ~num_blocks:3 in
  Alcotest.(check int) "next of r1 (b0)" 2 (Next_ref.next_after_same nr 0);
  Alcotest.(check int) "next of r3 (b0)" 5 (Next_ref.next_after_same nr 2);
  Alcotest.(check int) "next of r6 (b0) = none" 6 (Next_ref.next_after_same nr 5);
  Alcotest.(check int) "b1 at/after 0" 1 (Next_ref.next_at_or_after nr 1 0);
  Alcotest.(check int) "b1 at/after 2" 4 (Next_ref.next_at_or_after nr 1 2)

let prop_next_ref_consistent =
  QCheck2.Test.make ~count:300 ~name:"next_ref agrees with linear scan"
    QCheck2.Gen.(pair (list_size (int_range 1 40) (int_range 0 5)) (int_range 0 5))
    (fun (l, b) ->
       let seq = Array.of_list l in
       let nr = Next_ref.build seq ~num_blocks:6 in
       let n = Array.length seq in
       let ok = ref true in
       for pos = 0 to n do
         let expected =
           let r = ref n in
           for i = n - 1 downto pos do
             if seq.(i) = b then r := i
           done;
           !r
         in
         if Next_ref.next_at_or_after nr b pos <> expected then ok := false
       done;
       !ok)

(* Random schedules never make the executor crash: they are either rejected
   with a reason or accepted with consistent stats. *)
let prop_executor_total =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 20 in
      let* nblocks = int_range 2 6 in
      let* seq = array_size (return n) (int_range 0 (nblocks - 1)) in
      let* k = int_range 1 4 in
      let* fetches =
        list_size (int_range 0 6)
          (let* at_cursor = int_range 0 n in
           let* delay = int_range 0 3 in
           let* block = int_range 0 (nblocks - 1) in
           let* evict = opt (int_range 0 (nblocks - 1)) in
           return (at_cursor, delay, block, evict))
      in
      return (seq, k, fetches))
  in
  QCheck2.Test.make ~count:500 ~name:"executor total on random schedules" gen
    (fun (seq, k, fetches) ->
       let inst =
         Instance.single_disk ~k ~fetch_time:3
           ~initial_cache:(Instance.warm_initial_cache ~k seq)
           seq
       in
       let schedule =
         List.map
           (fun (at_cursor, delay, block, evict) ->
              Fetch_op.make ~at_cursor ~delay ~block ~evict ())
           fetches
       in
       match Simulate.run inst schedule with
       | Error _ -> true
       | Ok s ->
         s.Simulate.elapsed_time = Array.length seq + s.Simulate.stall_time
         && s.Simulate.stall_time >= 0
         && s.Simulate.peak_occupancy <= k)

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_next_ref_consistent; prop_executor_total ]

let () =
  Alcotest.run "disksim"
    [ ( "paper examples",
        [ Alcotest.test_case "example 1 naive (stall 3)" `Quick test_example1_naive;
          Alcotest.test_case "example 1 better (stall 1)" `Quick test_example1_better;
          Alcotest.test_case "example 1 deadlock" `Quick test_example1_no_fetch_deadlock;
          Alcotest.test_case "example 2 paper schedule (stall 3)" `Quick test_example2_paper_schedule;
          Alcotest.test_case "example 2 overlap benefits" `Quick test_example2_parallel_overlap ] );
      ( "executor errors",
        [ Alcotest.test_case "busy disk" `Quick test_reject_busy_disk;
          Alcotest.test_case "fetch cached block" `Quick test_reject_fetch_cached_block;
          Alcotest.test_case "evict absent block" `Quick test_reject_evict_absent;
          Alcotest.test_case "typed exception from _exn wrappers" `Quick
            test_exn_wrappers_raise_typed;
          Alcotest.test_case "capacity exceeded" `Quick test_reject_capacity;
          Alcotest.test_case "extra slots" `Quick test_extra_slots_allow_overcommit;
          Alcotest.test_case "evict during in-flight fetch" `Quick test_reject_evict_in_flight;
          Alcotest.test_case "evict at completion instant" `Quick test_evict_at_completion_instant_ok;
          Alcotest.test_case "wrong disk" `Quick test_reject_wrong_disk;
          Alcotest.test_case "elapsed = n + stall" `Quick test_elapsed_equals_n_plus_stall ] );
      ( "instances",
        [ Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "warm cache" `Quick test_warm_initial_cache;
          Alcotest.test_case "next_ref" `Quick test_next_ref ] );
      ("properties", props) ]
