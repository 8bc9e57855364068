(* Tests for the delayed-hit executor (lib/disksim/delayed.ml) and its
   stochastic fetch-latency plans.

   The anchor property is the degenerate-plan contract: with window 0
   and degenerate timing (Faults.none, or a jitter-free Const F plan)
   the executor must produce stats structurally identical to
   Simulate.run on every schedule the classic executor accepts - the
   queueing machinery must cost the deterministic path nothing, not
   even a different event stream.  On top of that: hand-computed
   parking traces, the queueing invariants under random plans, the
   latency-distribution bounds, and the split-stream RNG hardening
   (adding a latency distribution never perturbs the jitter or failure
   draws). *)

let fetch = Fetch_op.make

let ok = function
  | Ok v -> v
  | Error (e : Simulate.error) ->
    Alcotest.failf "schedule rejected at t=%d: %s" e.Simulate.at_time e.Simulate.reason

(* ------------------------------------------------------------------ *)
(* Hand-computed parking traces.

   seq = [b0; b0], k = 1, F = 3, cold cache, one fetch of b0 at cursor
   0.  Classic: three stall units while the fetch lands, then two
   serves (stall 3, elapsed 5).  Window 1: r1 parks on the in-flight
   fetch (one delayed hit, residual 3), r2 stalls behind the full
   window (elapsed 4 = (2 - 1) + 3).  Window 2: both requests park and
   the run ends at the completion instant itself (elapsed 3 =
   (2 - 2) + 3), exercising the loop-exit guard that prevents a
   spurious trailing stall unit. *)

let tiny_inst = Instance.single_disk ~k:1 ~fetch_time:3 ~initial_cache:[] [| 0; 0 |]
let tiny_sched = [ fetch ~at_cursor:0 ~block:0 ~evict:None () ]

let check_tiny ~window ~stall ~elapsed ~hits ~wait ~depth =
  let d = ok (Delayed.run ~window tiny_inst tiny_sched) in
  Alcotest.(check int) "stall" stall d.Delayed.base.Simulate.stall_time;
  Alcotest.(check int) "elapsed" elapsed d.Delayed.base.Simulate.elapsed_time;
  Alcotest.(check int) "hits" hits d.Delayed.delayed_hits;
  Alcotest.(check int) "wait" wait d.Delayed.delayed_wait;
  Alcotest.(check int) "depth" depth d.Delayed.max_queue_depth;
  Alcotest.(check int) "waits length" hits (List.length d.Delayed.waits)

let test_window0_is_classic () =
  check_tiny ~window:0 ~stall:3 ~elapsed:5 ~hits:0 ~wait:0 ~depth:0;
  let s = ok (Simulate.run tiny_inst tiny_sched) in
  let d = ok (Delayed.run ~window:0 tiny_inst tiny_sched) in
  Alcotest.(check bool) "base stats structurally identical" true (d.Delayed.base = s)

let test_window1_parks_one () = check_tiny ~window:1 ~stall:3 ~elapsed:4 ~hits:1 ~wait:3 ~depth:1

let test_window2_parks_both () =
  check_tiny ~window:2 ~stall:3 ~elapsed:3 ~hits:2 ~wait:6 ~depth:2;
  (* The wait log records both requests parking at t=0, ready at t=3. *)
  let d = ok (Delayed.run ~window:2 tiny_inst tiny_sched) in
  List.iter
    (fun (w : Delayed.wait) ->
       Alcotest.(check int) "parked at 0" 0 w.Delayed.parked_at;
       Alcotest.(check int) "ready at 3" 3 w.Delayed.ready_at;
       Alcotest.(check int) "block 0" 0 w.Delayed.block)
    d.Delayed.waits

let test_elapsed_identity () =
  (* elapsed = (n - hits) + stall on a larger instance. *)
  let seq = Workload.zipf ~seed:5 ~alpha:0.9 ~n:40 ~num_blocks:10 in
  let inst = Workload.single_instance ~k:5 ~fetch_time:4 seq in
  let sched = Aggressive.schedule inst in
  List.iter
    (fun window ->
       let d = ok (Delayed.run ~window inst sched) in
       Alcotest.(check int)
         (Printf.sprintf "elapsed identity at window %d" window)
         (Instance.length inst - d.Delayed.delayed_hits + d.Delayed.base.Simulate.stall_time)
         d.Delayed.base.Simulate.elapsed_time)
    [ 0; 1; 4; 16 ]

let test_rejects_negative_window () =
  match Delayed.run ~window:(-1) tiny_inst tiny_sched with
  | exception Faults.Invalid_plan { field; _ } -> Alcotest.(check string) "field" "window" field
  | _ -> Alcotest.fail "window -1 accepted"

let test_rejects_failure_plans () =
  let faults = Faults.make ~seed:3 ~fail_prob:0.5 () in
  (try
     ignore (Delayed.run ~faults tiny_inst tiny_sched);
     Alcotest.fail "failure plan accepted"
   with Faults.Invalid_plan _ -> ());
  let faults =
    Faults.make ~seed:3 ~outages:[ { Faults.disk = 0; from_time = 0; until_time = 2 } ] ()
  in
  try
    ignore (Delayed.run ~faults tiny_inst tiny_sched);
    Alcotest.fail "outage plan accepted"
  with Faults.Invalid_plan _ -> ()

(* ------------------------------------------------------------------ *)
(* Degenerate-plan oracle across the fuzz corpus: the same check the
   [delayed] fuzz class runs, pinned here over a fixed slice of the
   deterministic case generator so plain [dune runtest] covers it. *)

let test_degenerate_over_corpus () =
  for index = 0 to 79 do
    let case = Ck_gen.generate ~seed:7 ~index in
    match Ck_delayed.degenerate.Ck_oracle.check case.Ck_gen.inst with
    | Ck_oracle.Fail { msg; _ } ->
      Alcotest.failf "degenerate oracle failed on case %d (%s): %s" index case.Ck_gen.descr msg
    | Ck_oracle.Pass | Ck_oracle.Skip _ -> ()
  done

(* The PR-8 fast paths (heap-MIN Conservative, class-split Online)
   produce their schedules through new machinery; pin that the delayed
   executor's degenerate contract holds on exactly those plans too:
   window 0 with Faults.none AND with a jitter-free Const F plan must be
   structurally identical to Simulate.run, and the production plan must
   equal the seed loop's (Ck_seed) before either enters the executor. *)
let test_degenerate_on_fast_paths () =
  let fetch_time = 4 in
  let seq = Workload.zipf ~seed:21 ~alpha:0.9 ~n:300 ~num_blocks:24 in
  let inst = Workload.single_instance ~k:8 ~fetch_time seq in
  let const_f = Faults.make ~seed:1 ~latency:(Faults.Const fetch_time) () in
  List.iter
    (fun (rule : Ck_seed.rule) ->
       let name = rule.Ck_seed.name in
       let sched = rule.Ck_seed.schedule inst in
       (match Ck_seed.check inst [ rule ] with
        | Ck_oracle.Fail { msg; _ } -> Alcotest.failf "production plan <> seed-loop plan: %s" msg
        | Ck_oracle.Pass | Ck_oracle.Skip _ -> ());
       (* Events + attribution on both sides: Delayed.run with a faults
          plan records them unconditionally, so the bare executor must
          too for the structural comparison to be meaningful. *)
       let s = ok (Simulate.run ~record_events:true ~attribution:true inst sched) in
       let d = ok (Delayed.run ~record_events:true ~attribution:true ~window:0 inst sched) in
       Alcotest.(check bool)
         (Printf.sprintf "%s: window-0 base = classic" name)
         true (d.Delayed.base = s);
       Alcotest.(check int) (Printf.sprintf "%s: no delayed hits" name) 0 d.Delayed.delayed_hits;
       let dc =
         ok (Delayed.run ~record_events:true ~attribution:true ~window:0 ~faults:const_f
               inst sched)
       in
       Alcotest.(check bool)
         (Printf.sprintf "%s: const-F plan = classic" name)
         true (dc.Delayed.base = s))
    Ck_seed.
      [ conservative;
        online (Online.aggressive ~lookahead:32);
        online Online.{ lookahead = 8; delay = 2 };
        delay (Bounds.delay_opt_d ~f:fetch_time) ]

let test_queueing_over_corpus () =
  for index = 0 to 39 do
    let case = Ck_gen.generate ~seed:11 ~index in
    match Ck_delayed.queueing.Ck_oracle.check case.Ck_gen.inst with
    | Ck_oracle.Fail { msg; _ } ->
      Alcotest.failf "queueing oracle failed on case %d (%s): %s" index case.Ck_gen.descr msg
    | Ck_oracle.Pass | Ck_oracle.Skip _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Latency distributions: draws respect the advertised supports. *)

let draw_durations faults ~fetch_time ~count =
  List.init count (fun i ->
      (Faults.draw faults ~fetch_time ~disk:(i mod 3) ~block:(i mod 7) ~attempt:1 ~start:i)
        .Faults.duration)

let test_latency_supports () =
  let within name lo hi ds =
    List.iter
      (fun d ->
         if d < lo || d > hi then
           Alcotest.failf "%s drew %d outside [%d, %d]" name d lo hi)
      ds
  in
  within "const" 6 6
    (draw_durations (Faults.make ~seed:1 ~latency:(Faults.Const 6) ()) ~fetch_time:4 ~count:64);
  let uni = draw_durations
      (Faults.make ~seed:2 ~latency:(Faults.Uniform { lo = 2; hi = 9 }) ())
      ~fetch_time:4 ~count:256
  in
  within "uniform" 2 9 uni;
  Alcotest.(check bool) "uniform spreads" true
    (List.exists (fun d -> d <> List.hd uni) uni);
  let par = draw_durations
      (Faults.make ~seed:3 ~latency:(Faults.Pareto { xm = 2; alpha = 1.3; cap = 32 }) ())
      ~fetch_time:4 ~count:256
  in
  within "pareto" 2 32 par;
  Alcotest.(check bool) "pareto spreads" true
    (List.exists (fun d -> d <> List.hd par) par);
  (* Planned keeps the instance's fetch time. *)
  within "planned" 4 4 (draw_durations (Faults.make ~seed:4 ()) ~fetch_time:4 ~count:16)

let test_latency_bounds_helpers () =
  let f = 4 in
  Alcotest.(check int) "max planned" f
    (Faults.max_latency (Faults.make ~seed:1 ()) ~fetch_time:f);
  Alcotest.(check int) "max uniform" 9
    (Faults.max_latency
       (Faults.make ~seed:1 ~latency:(Faults.Uniform { lo = 2; hi = 9 }) ())
       ~fetch_time:f);
  Alcotest.(check int) "max pareto = cap" 32
    (Faults.max_latency
       (Faults.make ~seed:1 ~latency:(Faults.Pareto { xm = 2; alpha = 1.3; cap = 32 }) ())
       ~fetch_time:f);
  (* Base distribution only: every executor adds [max_jitter] on top
     when sizing its horizon, so the two bounds stay composable. *)
  Alcotest.(check int) "max excludes jitter" 9
    (Faults.max_latency
       (Faults.make ~seed:1 ~jitter_prob:0.5 ~max_jitter:3
          ~latency:(Faults.Uniform { lo = 2; hi = 9 }) ())
       ~fetch_time:f);
  Alcotest.(check (float 1e-9)) "mean const" 6.0
    (Faults.mean_latency (Faults.make ~seed:1 ~latency:(Faults.Const 6) ()) ~fetch_time:f);
  Alcotest.(check (float 1e-9)) "mean uniform" 5.5
    (Faults.mean_latency
       (Faults.make ~seed:1 ~latency:(Faults.Uniform { lo = 2; hi = 9 }) ())
       ~fetch_time:f)

let test_invalid_latency_plans () =
  let rejects name f =
    try
      ignore (f ());
      Alcotest.failf "%s accepted" name
    with Faults.Invalid_plan _ -> ()
  in
  rejects "const 0" (fun () -> Faults.make ~seed:1 ~latency:(Faults.Const 0) ());
  rejects "uniform lo > hi" (fun () ->
      Faults.make ~seed:1 ~latency:(Faults.Uniform { lo = 5; hi = 4 }) ());
  rejects "uniform lo 0" (fun () ->
      Faults.make ~seed:1 ~latency:(Faults.Uniform { lo = 0; hi = 4 }) ());
  rejects "pareto alpha 0" (fun () ->
      Faults.make ~seed:1 ~latency:(Faults.Pareto { xm = 2; alpha = 0.0; cap = 8 }) ());
  rejects "pareto cap < xm" (fun () ->
      Faults.make ~seed:1 ~latency:(Faults.Pareto { xm = 8; alpha = 1.3; cap = 4 }) ())

(* ------------------------------------------------------------------ *)
(* Split-stream RNG hardening: each fault concern draws from its own
   hash-derived stream, so adding a latency distribution to a plan must
   not perturb the jitter or failure draws of unrelated concerns. *)

let test_latency_stream_independent_of_jitter () =
  (* Const F with F = fetch_time changes only the (degenerate) base; if
     the jitter stream were shared with the latency stream the extras
     would shift.  Durations must match Planned pointwise. *)
  let mk latency = Faults.make ~seed:42 ~jitter_prob:0.7 ~max_jitter:5 ?latency () in
  let planned = draw_durations (mk None) ~fetch_time:4 ~count:256 in
  let const = draw_durations (mk (Some (Faults.Const 4))) ~fetch_time:4 ~count:256 in
  Alcotest.(check (list int)) "jitter stream unperturbed" planned const

let test_failure_stream_independent_of_latency () =
  let flags faults =
    List.init 256 (fun i ->
        (Faults.draw faults ~fetch_time:4 ~disk:(i mod 3) ~block:(i mod 7) ~attempt:1 ~start:i)
          .Faults.failed)
  in
  let planned = flags (Faults.make ~seed:9 ~fail_prob:0.4 ()) in
  let uniform =
    flags (Faults.make ~seed:9 ~fail_prob:0.4 ~latency:(Faults.Uniform { lo = 2; hi = 9 }) ())
  in
  Alcotest.(check (list bool)) "failure stream unperturbed" planned uniform

let test_pinned_draws () =
  (* Regression pin: these exact values must never change - a different
     stream split or mixing constant is an observable break in every
     seeded experiment and fuzz artifact. *)
  let d faults = (draw_durations faults ~fetch_time:4 ~count:8 : int list) in
  Alcotest.(check (list int)) "planned + jitter"
    [ 9; 5; 7; 6; 5; 9; 4; 7 ]
    (d (Faults.make ~seed:42 ~jitter_prob:0.5 ~max_jitter:5 ()));
  Alcotest.(check (list int)) "uniform [2,9]"
    [ 6; 4; 7; 6; 3; 7; 6; 7 ]
    (d (Faults.make ~seed:42 ~latency:(Faults.Uniform { lo = 2; hi = 9 }) ()));
  Alcotest.(check (list int)) "pareto xm=2 a=1.3 cap=32"
    [ 3; 2; 4; 3; 2; 4; 3; 4 ]
    (d (Faults.make ~seed:42 ~latency:(Faults.Pareto { xm = 2; alpha = 1.3; cap = 32 }) ()))

(* ------------------------------------------------------------------ *)
(* Telemetry surface: the delayed-hit event serializes with the full
   queueing context. *)

let test_delayed_hit_event_json () =
  let j =
    Event_log.json_of_event
      (Event_log.Delayed_hit
         { time = 7; cursor = 3; block = 5; disk = 1; queue_depth = 2; residual = 4 })
  in
  let field k = Tjson.member k j in
  Alcotest.(check bool) "event tag" true (field "event" = Some (Tjson.String "delayed_hit"));
  List.iter
    (fun (k, v) ->
       Alcotest.(check bool) (Printf.sprintf "field %s" k) true (field k = Some (Tjson.Int v)))
    [ ("time", 7); ("cursor", 3); ("block", 5); ("disk", 1); ("queue_depth", 2);
      ("residual", 4) ];
  (* And the whole line round-trips through the strict parser. *)
  match Tjson.of_string (Tjson.to_string j) with
  | Ok j' -> Alcotest.(check bool) "roundtrip" true (j = j')
  | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e

(* ------------------------------------------------------------------ *)
(* Byte-identity pins for the three executor entry points.

   Digests of whole results - stats with events and attribution, the
   fault report and the wait log, or the rejection's reason and time -
   over a corpus of workload families, schedulers and disk counts (plus
   perturbed schedules that reach rejections, drops and deferrals), each
   replayed by [Simulate.run], by [run_faulty] under jitter,
   failure-and-retry and outage plans, and by [Delayed.run] under
   [Faults.none], Const F, Uniform and bounded-Pareto latency at windows
   0, 1, 4 and 16.  The expected digests were recorded while the
   delayed-hit executor still had a loop of its own, so any change to
   FIFO order, deferral counts, drops or fault-stall attribution shows up
   here, not only the degenerate-plan equivalence. *)

let pin_digest r = Digest.to_hex (Digest.string (Marshal.to_string r [ Marshal.No_sharing ]))

let pin_n = 240
let pin_blocks = 20
let pin_k = 5
let pin_f = 4

let pin_faulty_plans ~num_disks =
  let last = num_disks - 1 in
  [ Faults.make ~seed:3 ~jitter_prob:0.3 ~max_jitter:3 ();
    Faults.make ~seed:5 ~fail_prob:0.15 ();
    Faults.make ~seed:7 ~jitter_prob:0.1 ~max_jitter:2
      ~outages:
        [ { Faults.disk = 0; from_time = 10; until_time = 30 };
          { Faults.disk = last; from_time = 60; until_time = 75 } ]
      () ]

let pin_delayed_plans =
  [ Faults.none;
    Faults.make ~seed:11 ~latency:(Faults.Const pin_f) ();
    Faults.make ~seed:13 ~latency:(Faults.Uniform { lo = 2; hi = 8 }) ();
    Faults.make ~seed:17 ~jitter_prob:0.2 ~max_jitter:2
      ~latency:(Faults.Pareto { xm = 2; alpha = 1.3; cap = 12 }) () ]

let pin_windows = [ 0; 1; 4; 16 ]

(* (label, instance, schedule) for every family x D x scheduler. *)
let pin_corpus () =
  List.concat_map
    (fun (fam : Workload.family) ->
       let seq = fam.Workload.generate ~seed:19 ~n:pin_n ~num_blocks:pin_blocks in
       List.concat_map
         (fun num_disks ->
            let par =
              Workload.parallel_instance ~k:pin_k ~fetch_time:pin_f ~num_disks
                ~layout:Workload.striped_layout seq
            in
            let parallel =
              [ ("par-aggressive", par, Parallel_greedy.aggressive_schedule par);
                ("par-conservative", par, Parallel_greedy.conservative_schedule par) ]
            in
            let single =
              if num_disks > 1 then []
              else
                let inst = Workload.single_instance ~k:pin_k ~fetch_time:pin_f seq in
                [ ("aggressive", inst, Aggressive.schedule inst);
                  ("conservative", inst, Conservative.schedule inst);
                  ("delay-d0", inst, Delay.schedule ~d:(Bounds.delay_opt_d ~f:pin_f) inst) ]
            in
            (* Perturbed schedules reach the rejections and the
               degraded-mode drops and deferrals that valid schedules
               rarely do: every fourth fetch starts two units late, every
               ninth is issued twice. *)
            let mutant (alg, inst, sched) =
              ( alg ^ "-mutant",
                inst,
                List.concat
                  (List.mapi
                     (fun i (f : Fetch_op.t) ->
                        let f =
                          if i mod 4 = 1 then { f with Fetch_op.delay = f.Fetch_op.delay + 2 }
                          else f
                        in
                        if i mod 9 = 4 then [ f; f ] else [ f ])
                     sched) )
            in
            List.map
              (fun (alg, inst, sched) ->
                 (Printf.sprintf "%s/D%d/%s" fam.Workload.name num_disks alg, inst, sched))
              (single @ parallel @ List.map mutant parallel))
         [ 1; 2; 4 ])
    Workload.families

(* Per corpus entry: digests of Simulate.run, of run_faulty under every
   faulty plan, and of Delayed.run under every latency plan and window. *)
let pin_row (label, inst, sched) =
  let run = Simulate.run ~record_events:true ~attribution:true inst sched in
  let faulty =
    List.map
      (fun faults -> Simulate.run_faulty ~record_events:true ~attribution:true ~faults inst sched)
      (pin_faulty_plans ~num_disks:inst.Instance.num_disks)
  in
  let delayed =
    List.concat_map
      (fun faults ->
         List.map
           (fun window ->
              Delayed.run ~record_events:true ~attribution:true ~window ~faults inst sched)
           pin_windows)
      pin_delayed_plans
  in
  (label, pin_digest run, pin_digest faulty, pin_digest delayed)

(* (label, Simulate.run, run_faulty, Delayed.run) digests. *)
let pinned =
  [ ( "uniform/D1/aggressive",
      "3189262cb766ed2e1f5668578577d171", "2854fbf46a8cd6b3013e10d87a8f35d1", "44affe8ee62964a2a56b8b717a342754" );
    ( "uniform/D1/conservative",
      "1290996c3dc9bed7872ad3983270b6dd", "9299c26631b09faf8484b091fd7600b4", "c869f3adf61f6005963e3fdc60354580" );
    ( "uniform/D1/delay-d0",
      "c556ae4580075311d0797ea9574d9b7a", "c06c26c58514368e0dd2306abb016ad3", "3cf6786029010a66306b31335a5ea00f" );
    ( "uniform/D1/par-aggressive",
      "3189262cb766ed2e1f5668578577d171", "2854fbf46a8cd6b3013e10d87a8f35d1", "44affe8ee62964a2a56b8b717a342754" );
    ( "uniform/D1/par-conservative",
      "1290996c3dc9bed7872ad3983270b6dd", "9299c26631b09faf8484b091fd7600b4", "c869f3adf61f6005963e3fdc60354580" );
    ( "uniform/D1/par-aggressive-mutant",
      "88ef90b91effcedc2354c31461be1340", "a8ccfcc4c883fdeafec440a459844295", "00bd31479a5892caf693cc144862d837" );
    ( "uniform/D1/par-conservative-mutant",
      "b5c4cc5b50b278cbebf155903bd4e3cf", "31cc087fdc401c89fe598b5fdea8b96e", "f91afe0bab55e5d6b7cbd0528a70aa0c" );
    ( "uniform/D2/par-aggressive",
      "2db81e024095fd861055352bc66a8fc9", "271b67dcf25f5a8b38faf9d61a0dc2af", "a9991f5c057b81f0c8b5052d38821dbe" );
    ( "uniform/D2/par-conservative",
      "3e67b1f51ee207179129dc449be879f9", "bc5d586eedb1dd5a27a2029290c6e603", "25639a8aa83865f15f45d9bef8b53d51" );
    ( "uniform/D2/par-aggressive-mutant",
      "3a57278bbb5c7cfa38c4fc6811136589", "fbeeb9b7e6b999f2b47c0a09234164f1", "a9df650f4aff6fc4d3d16514ffbc94f7" );
    ( "uniform/D2/par-conservative-mutant",
      "20a29bfe1cbde9d5176c181e3105538f", "c36b4885c3dbe030840120162ab69a32", "7cea90f42abe128f79a2ee9d85aad736" );
    ( "uniform/D4/par-aggressive",
      "82ea18cb1b52dfe99576a780c575997e", "9f2e82e55712ee2f1da1c6d682cb6e32", "4f22f84a167a0641851bde4f8465643c" );
    ( "uniform/D4/par-conservative",
      "a020d80d9933f74bfab0cc8895ae4a8b", "38c542e6caa07797c343e67bcb0fccc6", "72e96f55946add71c7bb6e50e44d371e" );
    ( "uniform/D4/par-aggressive-mutant",
      "77c75d1c290a127c031b63dc789d5c6e", "209b7d4165ab424d460d40341076c0dd", "12afffe716bdb0ea01ec87ccef4ca1b2" );
    ( "uniform/D4/par-conservative-mutant",
      "9044400d442f8ce2d53fd52c842ed55e", "d20e2720db9af8fb04491fc929c81e2a", "f4391030c404339768519789c35379ae" );
    ( "zipf/D1/aggressive",
      "21e57cef721609e095e309f0b826237a", "781a9ae035a9df0199cf4098a3e10fa4", "e88fb47cf3e20424ecae95e457aa0c07" );
    ( "zipf/D1/conservative",
      "cf0d7a91235f01518aeedb265a94dc1b", "fcbfacea5ad40ebbe8d3e0c1a092e1b9", "7ecee7f59a27c8bddf9478ad6565ffe8" );
    ( "zipf/D1/delay-d0",
      "fe2b0e949eb10d91d65569cd43747fcb", "71a4a877bd5a636037461aba6657af47", "aedb2a34f0a735f38d79375d1beb5a74" );
    ( "zipf/D1/par-aggressive",
      "21e57cef721609e095e309f0b826237a", "781a9ae035a9df0199cf4098a3e10fa4", "e88fb47cf3e20424ecae95e457aa0c07" );
    ( "zipf/D1/par-conservative",
      "cf0d7a91235f01518aeedb265a94dc1b", "fcbfacea5ad40ebbe8d3e0c1a092e1b9", "7ecee7f59a27c8bddf9478ad6565ffe8" );
    ( "zipf/D1/par-aggressive-mutant",
      "d1cf47428acc4cbafd0e8ca700ec6cac", "4498bac75b8d7909f06cc05f061a0dad", "c29f3b5c106b1703780bac3e4d62c084" );
    ( "zipf/D1/par-conservative-mutant",
      "e2a38e60c20e0bee157a280c8627f426", "e416050901c5c64095f0105f4892c1fe", "0964bb26c2de1397d029bc881f5fe1f1" );
    ( "zipf/D2/par-aggressive",
      "5359f758ff38720de26d868e7e2e4ac8", "e8072030da2ec98e13c181c9fb82c6f7", "aaf4c8b17271853f7b38fb60859e5839" );
    ( "zipf/D2/par-conservative",
      "cd4422ad970c4f1bd4a5c5f0ff83e402", "e69887036d930e4eb780a8db2daf6bd8", "d41fc2764b95b4c08a3504586d9ef9bc" );
    ( "zipf/D2/par-aggressive-mutant",
      "1e82e6dc6cf3830835d578a56ebe5980", "8c92c3c98ac342cfe12d802c876eef2c", "e5954215e8fedeb7b79158476a3b3595" );
    ( "zipf/D2/par-conservative-mutant",
      "1b499ac359dc9150958f8af4f20433a1", "cdfc6fabc3bb946776988869562bf72f", "4831d9e01558da18f212072687a62e8b" );
    ( "zipf/D4/par-aggressive",
      "1637bc5b60db0760133da28e9535a5a9", "0a33ed244ce0830dd3fa37bf738772df", "16862af0d16faad29206081b169d8bd4" );
    ( "zipf/D4/par-conservative",
      "0ea261873771dd57c72da51e9ce3b87a", "7307050aec4591a6dee2848193d8ed85", "08aa62f502ab6493ef0a9a7b1186cb12" );
    ( "zipf/D4/par-aggressive-mutant",
      "a54c3b0b6ca191e9c34a12a3d66d7a81", "4f166683bcf2cc13623b1e3488acfa9b", "686b92f15a6b5729123a16f5052130d0" );
    ( "zipf/D4/par-conservative-mutant",
      "1b499ac359dc9150958f8af4f20433a1", "76271cf31ca7a6f6ad2f240bc2a33b2f", "5705eb3324571642216a3a94e1352c42" );
    ( "scan/D1/aggressive",
      "1c82c2696957026157fa4b9a2c0f6c24", "f6d5d1f9f6d07cc44e40ba5c0cbf06e1", "42c946aaa800a5920b6204feeedd4fbb" );
    ( "scan/D1/conservative",
      "40b0ee00f873bee932c4466e625c259b", "f87c4be13803dba36c4d868ea9ad0ecd", "29f4d8d2b8340994c9e5d14fe70a83b5" );
    ( "scan/D1/delay-d0",
      "ef7e8dcf8850d79e4610c27648d0f446", "1fdc2a2f38194a72fd0cd5c26008353a", "b0c379f525007827d779a30577721744" );
    ( "scan/D1/par-aggressive",
      "1c82c2696957026157fa4b9a2c0f6c24", "f6d5d1f9f6d07cc44e40ba5c0cbf06e1", "42c946aaa800a5920b6204feeedd4fbb" );
    ( "scan/D1/par-conservative",
      "40b0ee00f873bee932c4466e625c259b", "f87c4be13803dba36c4d868ea9ad0ecd", "29f4d8d2b8340994c9e5d14fe70a83b5" );
    ( "scan/D1/par-aggressive-mutant",
      "0a872243d55e5fe2c6a1f4ead89e731b", "13bcea7000a0f9c5105cc81d7ed144a5", "b8d4ec59a28d022d79cac11280241392" );
    ( "scan/D1/par-conservative-mutant",
      "fcb99001c19bc88a500792cdb6de13a6", "1fe3227890ea5b1d3d0c843d2b130d2a", "fe6ae94e287a74bd5492a71ea9c57180" );
    ( "scan/D2/par-aggressive",
      "48248dd81cf58c443b9d3f75464fe56d", "660812c2100bb4b87a751dcd22399f8e", "a8043dcc0c24eca2407357d3f0912cf9" );
    ( "scan/D2/par-conservative",
      "7399670660fda560ee96fe6e1562c80f", "70654ad2c86e4dde17c9a5895a133145", "2cc02b11e3ca11f80bb53c179169a485" );
    ( "scan/D2/par-aggressive-mutant",
      "e3c67f7fee6a8cca4cc29ba8a6af5096", "0a417a6d83ef5dfa860e8cb41f012f51", "156a9adace7818f46c66c7aad615fc79" );
    ( "scan/D2/par-conservative-mutant",
      "fccec46921a37f24cdec7533f1251792", "8c803116f6cd1e9edc7643edee897541", "3d695b9d875fbaa33ac80ef845fdebe6" );
    ( "scan/D4/par-aggressive",
      "75cda593b7e01dc91e0d28eb3d69488a", "404f1828a4ab8253656e5658e5c68701", "e8e471bfe436a60fad58d2a39dc99323" );
    ( "scan/D4/par-conservative",
      "0e0126a4f0dab3814e00bb499eb01ebb", "7222c38dd0bf1be24f6a54a48b555a5e", "e713d32e09c9da9b86b56dc64379ae7d" );
    ( "scan/D4/par-aggressive-mutant",
      "bc569d9dd8ac5e38f60b801722647228", "a4e7357ffdbea854c1380de682784b3f", "ac93e1b92ceb78b9c3d970c4d4aa6470" );
    ( "scan/D4/par-conservative-mutant",
      "fccec46921a37f24cdec7533f1251792", "f484579a9e9be895ec8dcb0ad69be374", "cf0a4510030c29d7caf0c711a9430d7a" );
    ( "lru_stack/D1/aggressive",
      "50821c5b4aa42810847b5e004aef6932", "b40827f59c64b3dab5ed09e392fa9228", "36395f2a93f18cdb263eed1b060d569d" );
    ( "lru_stack/D1/conservative",
      "f7c5344cf410eb44a751be96f65b6d82", "95990442bba74533f5f0b63146b3e249", "5883efb5b673873d1c0eb6b231e7cbb5" );
    ( "lru_stack/D1/delay-d0",
      "5fb2a57b1ff213c470c0c8500ea0ebb6", "7a208ea53eabac19dc235ff4e83aa595", "dfccddc790059f19d3abe81c41a470d6" );
    ( "lru_stack/D1/par-aggressive",
      "50821c5b4aa42810847b5e004aef6932", "b40827f59c64b3dab5ed09e392fa9228", "36395f2a93f18cdb263eed1b060d569d" );
    ( "lru_stack/D1/par-conservative",
      "f7c5344cf410eb44a751be96f65b6d82", "95990442bba74533f5f0b63146b3e249", "5883efb5b673873d1c0eb6b231e7cbb5" );
    ( "lru_stack/D1/par-aggressive-mutant",
      "d40b293a1d85bc220786ef1275157f76", "1699bbbf273af0077a5d5058d772c544", "ce40fb5690dc9a846bb2192e4d6ed1b3" );
    ( "lru_stack/D1/par-conservative-mutant",
      "b057b0d044fd0fb2f40e0c178f257a7e", "55145345cd9489e34274e581e0f9d744", "9ccdafe16b7592c04ae3949e05d674c2" );
    ( "lru_stack/D2/par-aggressive",
      "e32df2fa6f718864b5836fd00c8fa605", "f166ef7bad01f201b79b5af9248e4788", "b627a0b921900b9a51255a307844ba65" );
    ( "lru_stack/D2/par-conservative",
      "b1366af236132ec1908e2fc790a83093", "d4df9f2259e05bffe5ff2fc13c44ac8f", "aaaabf6aebb4048cbd13c78d26b3cea9" );
    ( "lru_stack/D2/par-aggressive-mutant",
      "fdaae2e5ef29651720ff47cabe7cd38e", "35c3523bd74ef16b6a9e81882de00be3", "20a243ce877268a3ff06dbc252972e1d" );
    ( "lru_stack/D2/par-conservative-mutant",
      "0ff9ed61ea1f0d3ec4707213fd07768a", "563352f203e8ddcfc5431ecdb401ed3f", "ec13c22947c2252b18c28b14ac824763" );
    ( "lru_stack/D4/par-aggressive",
      "0227e5407c0d856cba22a75798b8476d", "82fecd945d02fda2a2c59d6da80cce3a", "50ff2dfa151bdb82dd374211ee8eb501" );
    ( "lru_stack/D4/par-conservative",
      "9a17a3d53aa241d259d46868b18b7d08", "4eec3886a86f0a3d4291225712401d95", "e0ad7c288aaf1ee9e812c2183abe8754" );
    ( "lru_stack/D4/par-aggressive-mutant",
      "b68e40c0a77379e14b6130d06affbd0e", "b87aec9b640ade46c3f001882676decc", "6875cd94d159b0905dee06b4e8d32267" );
    ( "lru_stack/D4/par-conservative-mutant",
      "0ff9ed61ea1f0d3ec4707213fd07768a", "503e7a3d4a53cd8033ddc3312cb434c6", "de36ba0a3ff5c0aa6e9163518dc807a0" );
    ( "scan+hot/D1/aggressive",
      "cdea744222cbfaaa6a95d801997bff3e", "f9ec6bda1d6259d1607595b9bb3bc31f", "94f48bb17f638e733feb7ea7feacc431" );
    ( "scan+hot/D1/conservative",
      "d4119bbbf5817f6ac7495a19a387f3bf", "d97f788e3219fdaa18a3ed7819e4b697", "a963693986ef35d3be336c315e8c97f6" );
    ( "scan+hot/D1/delay-d0",
      "e9c6ed2bc380f44652317602f80d0220", "f38a79162ee2ede4140cc121e148ba39", "f4feec14be433d38afdcb8eaf836dcbd" );
    ( "scan+hot/D1/par-aggressive",
      "cdea744222cbfaaa6a95d801997bff3e", "f9ec6bda1d6259d1607595b9bb3bc31f", "94f48bb17f638e733feb7ea7feacc431" );
    ( "scan+hot/D1/par-conservative",
      "d4119bbbf5817f6ac7495a19a387f3bf", "d97f788e3219fdaa18a3ed7819e4b697", "a963693986ef35d3be336c315e8c97f6" );
    ( "scan+hot/D1/par-aggressive-mutant",
      "68967ef723e5cbe8e3c3fff671cb0c13", "81f9910a9fbec12c45e221eb07799159", "578cc67f4d2dd99ec7ac9072d9039d53" );
    ( "scan+hot/D1/par-conservative-mutant",
      "08b36fe48adcfa074dbbd5ce4b51fe53", "87aac86609de4207fdeedca567a15d1e", "e58c1e8427cfb425f0467575e520d62d" );
    ( "scan+hot/D2/par-aggressive",
      "186ddb4b3999228001facea597231b01", "337630a145f29d8b2d716bb368116242", "485374917c545f1621c0be3500042bed" );
    ( "scan+hot/D2/par-conservative",
      "c3dc47b59871467f153867249d79a401", "05f103d29ba37b814b101f3f1202e1f3", "33c68597dfeff2c5866c76f7cb981643" );
    ( "scan+hot/D2/par-aggressive-mutant",
      "bd51bea0e3bee1046765d60cfe67384b", "cd6178b9bcecc658efb0bb241eb9ba3b", "5559bebb71039556024548d16f936b5c" );
    ( "scan+hot/D2/par-conservative-mutant",
      "97799cd50e0e42d26f1b0db8ed47cfea", "4d589167fd40285462423823ce60d071", "4d8db9d34ce36f5bcbdde7abaa2c6052" );
    ( "scan+hot/D4/par-aggressive",
      "f55cf89cfa86d4edf435c58c695faab3", "16ccdd605a7ffd91f2093f5960ca1ec2", "394b22002a5ad716f55006b4cef3f977" );
    ( "scan+hot/D4/par-conservative",
      "5a23daba62c75f49545173b64c32806d", "a0fadfba6174b17cf3ae33b452d32d8c", "41d5a02615e9479049f3ced8779d2466" );
    ( "scan+hot/D4/par-aggressive-mutant",
      "bc569d9dd8ac5e38f60b801722647228", "ae8ca0d3d813a21af590529885486540", "8ad12d7e21383875dff102e392625dd7" );
    ( "scan+hot/D4/par-conservative-mutant",
      "3725e874b18662828610c16c418415fa", "f4c683e8a6b85ebdfcafe0433d41b755", "c03423ae93ca5ef37a32a0b2102b5cfb" ) ]

let test_pinned_digests () =
  let rows = List.map pin_row (pin_corpus ()) in
  Alcotest.(check int) "corpus size" (List.length pinned) (List.length rows);
  List.iter2
    (fun (label, run, faulty, delayed) (label', run', faulty', delayed') ->
       Alcotest.(check string) "corpus order" label label';
       Alcotest.(check string) (label ^ ": Simulate.run") run run';
       Alcotest.(check string) (label ^ ": run_faulty") faulty faulty';
       Alcotest.(check string) (label ^ ": Delayed.run") delayed delayed')
    pinned rows

(* ------------------------------------------------------------------ *)
(* The strict executor's paths, over the pin corpus.  A stall run is
   taken whole whatever the flags, so turning events and attribution off
   must change nothing the stats keep without them.  And pending ops are
   walked in start order, sorted only when the schedule is not already
   in that order (most Driver logs are): a shuffled copy of a valid
   schedule takes the sort path and must replay identically, each
   fetch's stall charge following it to its new index. *)

let same_untracked label (on : Simulate.stats) (off : Simulate.stats) =
  let check what a b = Alcotest.(check int) (Printf.sprintf "%s: %s" label what) a b in
  check "stall" on.Simulate.stall_time off.Simulate.stall_time;
  check "elapsed" on.Simulate.elapsed_time off.Simulate.elapsed_time;
  check "started" on.Simulate.fetches_started off.Simulate.fetches_started;
  check "completed" on.Simulate.fetches_completed off.Simulate.fetches_completed;
  check "peak occupancy" on.Simulate.peak_occupancy off.Simulate.peak_occupancy;
  Alcotest.(check (array int)) (label ^ ": disk busy") on.Simulate.disk_busy off.Simulate.disk_busy

let test_flags_off_agree () =
  List.iter
    (fun (label, inst, sched) ->
       let on = Simulate.run ~record_events:true ~attribution:true inst sched in
       match (on, Simulate.run inst sched) with
       | Ok on, Ok off -> same_untracked label on off
       | Error e, Error e' ->
         Alcotest.(check string) (label ^ ": reason") e.Simulate.reason e'.Simulate.reason;
         Alcotest.(check int) (label ^ ": rejected at") e.Simulate.at_time e'.Simulate.at_time
       | Ok _, Error _ | Error _, Ok _ -> Alcotest.failf "%s: flags change acceptance" label)
    (pin_corpus ())

(* Fisher-Yates on a fixed seed; perm.(j) is the original index of the
   op now at j. *)
let shuffled seed sched =
  let ops = Array.of_list sched in
  let perm = Array.init (Array.length ops) Fun.id in
  let rng = Random.State.make [| seed |] in
  for j = Array.length perm - 1 downto 1 do
    let r = Random.State.int rng (j + 1) in
    let x = perm.(j) in
    perm.(j) <- perm.(r);
    perm.(r) <- x
  done;
  (perm, Array.to_list (Array.map (fun i -> ops.(i)) perm))

let test_shuffled_schedules () =
  let replayed = ref 0 in
  List.iteri
    (fun seed (label, inst, sched) ->
       match Simulate.run ~record_events:true ~attribution:true inst sched with
       | Error _ -> ()
       | Ok s ->
         let perm, sched' = shuffled seed sched in
         if sched' <> sched then incr replayed;
         (match Simulate.run ~record_events:true ~attribution:true inst sched' with
          | Error e -> Alcotest.failf "%s: shuffled copy rejected: %s" label e.Simulate.reason
          | Ok s' ->
            same_untracked label s s';
            Alcotest.(check bool) (label ^ ": events") true (s.Simulate.events = s'.Simulate.events);
            Alcotest.(check bool) (label ^ ": occupancy") true
              (s.Simulate.occupancy = s'.Simulate.occupancy);
            let charges = Array.of_list s.Simulate.stall_by_fetch in
            List.iteri
              (fun j (a : Simulate.fetch_stall) ->
                 let orig = charges.(perm.(j)) in
                 Alcotest.(check int) (label ^ ": fetch_index") j a.Simulate.fetch_index;
                 Alcotest.(check bool) (label ^ ": fetch") true (a.Simulate.fetch = orig.Simulate.fetch);
                 Alcotest.(check (pair int int))
                   (Printf.sprintf "%s: charge of op %d (was %d)" label j perm.(j))
                   (orig.Simulate.involuntary_stall, orig.Simulate.voluntary_stall)
                   (a.Simulate.involuntary_stall, a.Simulate.voluntary_stall))
              s'.Simulate.stall_by_fetch))
    (pin_corpus ());
  Alcotest.(check bool) "some schedules were reordered" true (!replayed > 0)

(* ------------------------------------------------------------------ *)
(* Randomized sweep: queueing invariants under arbitrary latency plans
   and windows.  No starvation (every request served exactly once), the
   elapsed identity, the attribution partition, and the wait-log
   bijection. *)

let prop_delayed_invariants =
  QCheck2.Test.make ~count:120 ~name:"delayed executor invariants under random plans"
    ~print:(fun (seed, window, dist, conservative) ->
      Printf.sprintf "seed=%d window=%d dist=%d conservative=%b" seed window dist conservative)
    QCheck2.Gen.(tup4 (int_range 0 5000) (int_range 0 12) (int_range 0 2) bool)
    (fun (seed, window, dist, conservative) ->
       let latency =
         match dist with
         | 0 -> Faults.Const 4
         | 1 -> Faults.Uniform { lo = 2; hi = 8 }
         | _ -> Faults.Pareto { xm = 2; alpha = 1.3; cap = 16 }
       in
       let faults = Faults.make ~seed ~latency () in
       let seq = Workload.zipf ~seed:(seed + 1) ~alpha:0.9 ~n:40 ~num_blocks:10 in
       let inst = Workload.single_instance ~k:5 ~fetch_time:4 seq in
       let sched =
         if conservative then Conservative.schedule inst else Aggressive.schedule inst
       in
       let n = Instance.length inst in
       match Delayed.run ~record_events:true ~attribution:true ~window ~faults inst sched with
       | Error _ -> false  (* latency-only plans must never wedge a valid schedule *)
       | Ok d ->
         let s = d.Delayed.base in
         (* Every request served exactly once - no starvation, no double
            service. *)
         let served = Array.make n 0 in
         List.iter
           (function
             | Simulate.Serve { index; _ } -> served.(index) <- served.(index) + 1
             | _ -> ())
           s.Simulate.events;
         assert (Array.for_all (fun c -> c = 1) served);
         assert (s.Simulate.elapsed_time = n - d.Delayed.delayed_hits + s.Simulate.stall_time);
         let charged =
           List.fold_left
             (fun acc (fs : Simulate.fetch_stall) ->
                acc + fs.Simulate.involuntary_stall + fs.Simulate.voluntary_stall)
             0 s.Simulate.stall_by_fetch
         in
         assert (charged = s.Simulate.stall_time);
         (* Wait log in bijection with the hits, each within bounds. *)
         assert (List.length d.Delayed.waits = d.Delayed.delayed_hits);
         let max_residual = Faults.max_latency faults ~fetch_time:4 in
         List.iter
           (fun (w : Delayed.wait) ->
              assert (w.Delayed.ready_at - w.Delayed.parked_at >= 1);
              assert (w.Delayed.ready_at - w.Delayed.parked_at <= max_residual);
              assert (w.Delayed.queue_depth >= 1);
              assert (window = 0 || w.Delayed.queue_depth <= window))
           d.Delayed.waits;
         assert (
           List.fold_left (fun acc (w : Delayed.wait) -> acc + w.Delayed.ready_at - w.Delayed.parked_at)
             0 d.Delayed.waits
           = d.Delayed.delayed_wait);
         d.Delayed.delayed_hits = 0 || window > 0)

let () =
  Alcotest.run "delayed"
    [ ("parking",
       [ Alcotest.test_case "window 0 = classic" `Quick test_window0_is_classic;
         Alcotest.test_case "window 1 parks one" `Quick test_window1_parks_one;
         Alcotest.test_case "window 2 parks both (loop-exit guard)" `Quick
           test_window2_parks_both;
         Alcotest.test_case "elapsed identity" `Quick test_elapsed_identity;
         Alcotest.test_case "rejects negative window" `Quick test_rejects_negative_window;
         Alcotest.test_case "rejects failure plans" `Quick test_rejects_failure_plans ]);
      ("oracles",
       [ Alcotest.test_case "degenerate over corpus" `Slow test_degenerate_over_corpus;
         Alcotest.test_case "degenerate on PR-8 fast-path plans" `Quick
           test_degenerate_on_fast_paths;
         Alcotest.test_case "queueing over corpus" `Slow test_queueing_over_corpus ]);
      ("byte identity", [ Alcotest.test_case "pinned digests" `Quick test_pinned_digests ]);
      ("strict executor",
       [ Alcotest.test_case "flags off agree with flags on" `Quick test_flags_off_agree;
         Alcotest.test_case "shuffled schedules replay identically" `Quick
           test_shuffled_schedules ]);
      ("latency distributions",
       [ Alcotest.test_case "supports" `Quick test_latency_supports;
         Alcotest.test_case "bounds helpers" `Quick test_latency_bounds_helpers;
         Alcotest.test_case "invalid plans" `Quick test_invalid_latency_plans ]);
      ("rng hardening",
       [ Alcotest.test_case "latency stream independent of jitter" `Quick
           test_latency_stream_independent_of_jitter;
         Alcotest.test_case "failure stream independent of latency" `Quick
           test_failure_stream_independent_of_latency;
         Alcotest.test_case "pinned draws" `Quick test_pinned_draws ]);
      ("telemetry",
       [ Alcotest.test_case "delayed_hit event json" `Quick test_delayed_hit_event_json ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_delayed_invariants ]) ]
