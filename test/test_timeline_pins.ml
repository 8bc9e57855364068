(* Byte-identity pins for the timeline engine.

   Every batch scheduler that runs on [Driver]'s loop and every
   registered streaming policy is run over a fixed corpus, and each
   result is digested (Marshal [No_sharing] + MD5) against a digest
   recorded before the batch and streaming engines were merged into one
   loop.  Unlike the seed-loop oracle (Ck_seed, behind
   test_driver_equiv), which steps the same engine core one instant at
   a time (so a change to the shared fetch, completion or cache code
   moves both sides at once), these pins compare against a fixed past,
   so any drift in a schedule, a stall count, an elapsed time or an
   engine counter fails here.

   - Batch: the schedule plus the [driver.*] counters of the run (stall
     units, fetches, frontier, clock-skip and heap activity); for the
     schedulers whose decide callback is public, also [Driver.time] and
     [Driver.stall_time].
   - Stream: the whole [Stream.outcome] with the schedule recorded, plus
     the [stream.*] counters, for every registered policy at windows
     1, F, 2F+1, 64 and n, and one run read from a saved trace file.

   Also here: a streaming run must take the event-skipping path. *)

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let counter name =
  match Telemetry.find name with Some (Telemetry.Counter c) -> c | _ -> 0

(* [f ()] with telemetry off, then again with it on to read [names]:
   the pins cover both the plain path and the metered one. *)
let metered names f =
  let plain = f () in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let again = Fun.protect f ~finally:(fun () -> Telemetry.set_enabled false) in
  if again <> plain then Alcotest.fail "metered run differs from the plain run";
  (plain, List.map counter names)

let driver_counters =
  [ "driver.runs"; "driver.fetches"; "driver.stall_units"; "driver.frontier_advances";
    "driver.frontier_clamps"; "driver.clock_skips"; "driver.clock_units_skipped";
    "driver.heap_pushes"; "driver.heap_stale_pops"; "driver.heap_compactions" ]

let stream_counters =
  [ "stream.runs"; "stream.requests"; "stream.pulled"; "stream.refills"; "stream.fetches";
    "stream.demand_fetches"; "stream.stall_units" ]

(* ------------------------------------------------------------------ *)
(* Corpus. *)

let corpus_size = 300

(* (label, instance) pairs: the fuzzer's tiered cases, then the scale
   families at n = 2,000 under the two shapes the equivalence suite
   uses. *)
let corpus =
  lazy
    (List.init corpus_size (fun index ->
         let c = Ck_gen.generate ~seed:2026 ~index in
         (Printf.sprintf "ck%d" index, c.Ck_gen.inst))
     @ List.concat_map
         (fun (fam : Workload.family) ->
            List.map
              (fun (k, f) ->
                 let seq = fam.Workload.generate ~seed:5 ~n:2_000 ~num_blocks:64 in
                 ( Printf.sprintf "%s-k%d-F%d" fam.Workload.name k f,
                   Workload.single_instance ~k ~fetch_time:f seq ))
              [ (4, 7); (16, 4) ])
         Workload.scale_families)

let single_disk () =
  List.filter (fun (_, (i : Instance.t)) -> i.Instance.num_disks = 1) (Lazy.force corpus)

(* Every case's sequence re-laid out striped over [num_disks] disks. *)
let striped num_disks =
  List.map
    (fun (label, (i : Instance.t)) ->
       let disk_of = Workload.striped_layout ~num_blocks:(Instance.num_blocks i) ~num_disks in
       ( Printf.sprintf "%s-D%d" label num_disks,
         Instance.parallel ~k:i.Instance.cache_size ~fetch_time:i.Instance.fetch_time ~num_disks
           ~disk_of ~initial_cache:i.Instance.initial_cache i.Instance.seq ))
    (Lazy.force corpus)

(* ------------------------------------------------------------------ *)
(* Batch. *)

(* A scheduler whose decide callback is public: pin the driver's own
   clock and stall count too. *)
let driven decide inst =
  let d = Driver.run inst ~decide in
  (Driver.schedule d, Driver.time d, Driver.stall_time d)

let scheduled schedule inst = (schedule inst, -1, -1)

let batch_rows () =
  let single = single_disk () in
  let any = Lazy.force corpus in
  let d2 = striped 2 and d4 = striped 4 in
  let online la dl = scheduled (Online.schedule Online.{ lookahead = la; delay = dl }) in
  let delay d (inst : Instance.t) =
    let d = if d < 0 then Bounds.delay_opt_d ~f:inst.Instance.fetch_time else d in
    scheduled (Delay.schedule ~d) inst
  in
  [ ("aggressive", single, driven Aggressive.decide);
    ("conservative", single, scheduled Conservative.schedule);
    ("combination", single, scheduled Combination.schedule);
    ("fixed-horizon", any, scheduled Fixed_horizon.schedule);
    ("reverse-aggressive", any, scheduled Reverse_aggressive.schedule);
    ("delay(0)", single, delay 0);
    ("delay(1)", single, delay 1);
    ("delay(d0)", single, delay (-1));
    ("online(4,0)", single, online 4 0);
    ("online(4,2)", single, online 4 2);
    ("online(32,0)", single, online 32 0);
    ("online(32,2)", single, online 32 2);
    ("aggressive-D2", d2, driven Parallel_greedy.aggressive_decide);
    ("aggressive-D4", d4, driven Parallel_greedy.aggressive_decide);
    ("conservative-D2", d2, scheduled Parallel_greedy.conservative_schedule);
    ("conservative-D4", d4, scheduled Parallel_greedy.conservative_schedule) ]

let batch_digest (cases, run) =
  digest
    (List.map
       (fun (label, inst) -> (label, metered driver_counters (fun () -> run inst)))
       cases)

(* ------------------------------------------------------------------ *)
(* Stream. *)

let stream_run ~window pname (inst : Instance.t) =
  let build = Option.get (Prefetcher.find pname) in
  Stream.run ~record_schedule:true ~initial_cache:inst.Instance.initial_cache
    ~k:inst.Instance.cache_size ~fetch_time:inst.Instance.fetch_time ~window
    (Stream.of_array inst.Instance.seq)
    (build ~fetch_time:inst.Instance.fetch_time)

let windows (inst : Instance.t) =
  let f = inst.Instance.fetch_time in
  [ 1; f; (2 * f) + 1; 64; Stdlib.max 1 (Instance.length inst) ]

let stream_digest pname =
  digest
    (List.concat_map
       (fun (label, inst) ->
          List.map
            (fun window ->
               (label, window, metered stream_counters (fun () -> stream_run ~window pname inst)))
            (windows inst))
       (single_disk ()))

(* What [ipc stream --file] runs: k, F and the initial cache from the
   trace header, requests read line by line. *)
let reader_digest () =
  let seq = Workload.zipf ~seed:9 ~alpha:0.9 ~n:3_000 ~num_blocks:200 in
  let inst = Workload.single_instance ~k:16 ~fetch_time:6 seq in
  let path = Filename.temp_file "timeline_pins" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Trace_io.save_instance path inst;
       digest
         (List.map
            (fun pname ->
               metered stream_counters (fun () ->
                   Trace_io.with_reader path (fun r ->
                       let h = Trace_io.header r in
                       let build = Option.get (Prefetcher.find pname) in
                       Stream.run ~record_schedule:true
                         ~initial_cache:(Option.value h.Trace_io.initial_cache ~default:[])
                         ~k:h.Trace_io.cache_size ~fetch_time:h.Trace_io.fetch_time ~window:64
                         (Stream.of_reader r)
                         (build ~fetch_time:h.Trace_io.fetch_time))))
            (Prefetcher.names ())))

(* ------------------------------------------------------------------ *)
(* Pinned digests. *)

(* Recorded before the batch and streaming loops were merged. *)
let pinned =
  [ ("batch aggressive", "36414ca56db065f2574ca0a05b5fe690");
    ("batch conservative", "e3efde7aede9a6c2d01bf8f996116c53");
    ("batch combination", "e3063a171744013a9e01d92eb00b01b2");
    ("batch fixed-horizon", "b0bf70e5c007e5599203feeb5c7550ea");
    ("batch reverse-aggressive", "75600815d81ec740bae0e768b693534c");
    ("batch delay(0)", "82134899c4fd7fe86e7d7b46df530be2");
    ("batch delay(1)", "43b0e77a93fb887e37c8f347856b5f7f");
    ("batch delay(d0)", "ed6a89e12349cfb33c683566e6aa25b6");
    ("batch online(4,0)", "0cc04d126c0035087c2546111f7560b8");
    ("batch online(4,2)", "1547b7053cae0e62f3f6823d6d191fc2");
    ("batch online(32,0)", "607505cd2f98fadc66d1bcb53d8dddfa");
    ("batch online(32,2)", "4c8aeb0d0414908c8b10df4b0d38f50a");
    ("batch aggressive-D2", "a934c436f937e6d1bb317bd877d5c1c8");
    ("batch aggressive-D4", "4d9d972f86fe17124e83717027fcff6c");
    ("batch conservative-D2", "7391a501b51d705e010f0d69e7480e37");
    ("batch conservative-D4", "8432e02aac60133c27e2f215b4b46691");
    ("stream aggressive", "46435cb2c1d345d32e92f4776e50a74b");
    ("stream delay", "34741f898a59d95257df5688b10b1dfc");
    ("stream demand", "7b25fe8069af461fe8a3407767da9881");
    ("stream markov", "b20c03ef2b8aeead872fe931d6c413a3");
    ("stream obl", "a812abead94ed0f1d3bb909d047bc305");
    ("stream of_reader", "a9f9bd8a4e4cd1656465d4ae7dce6dc1") ]

let rows () =
  List.map (fun (name, cases, run) -> ("batch " ^ name, batch_digest (cases, run))) (batch_rows ())
  @ List.map (fun p -> ("stream " ^ p, stream_digest p)) (Prefetcher.names ())
  @ [ ("stream of_reader", reader_digest ()) ]

let test_pinned () =
  let rows = rows () in
  let missing = List.filter (fun (name, _) -> not (List.mem_assoc name pinned)) rows in
  if missing <> [] then
    Alcotest.failf "unpinned rows:\n%s"
      (String.concat "\n"
         (List.map (fun (name, d) -> Printf.sprintf "    (%S, %S);" name d) missing));
  Alcotest.(check int) "pinned rows" (List.length pinned) (List.length rows);
  List.iter
    (fun (name, expected) ->
       Alcotest.(check string) name expected (List.assoc name rows))
    pinned

(* A streaming run takes the event-skipping path: on a scan every
   request misses, the single disk is busy nearly always, and whole stall
   runs are skipped in one step. *)
let test_stream_skips () =
  let out, skips =
    metered [ "stream.clock_skips" ] (fun () ->
        Stream.run ~k:16 ~fetch_time:8 ~window:64
          (Stream.take 2_000 (Stream.sequential_scan ~num_blocks:500))
          (Prefetcher.aggressive ()))
  in
  Alcotest.(check int) "served" 2_000 out.Stream.served;
  Alcotest.(check bool) "clock skips > 0" true (List.hd skips > 0)

let () =
  Alcotest.run "timeline-pins"
    [ ("byte identity", [ Alcotest.test_case "pinned digests" `Quick test_pinned ]);
      ("event skipping", [ Alcotest.test_case "streaming run skips" `Quick test_stream_skips ]) ]
