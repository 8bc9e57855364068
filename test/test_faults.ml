(* Tests for the fault-injection layer: the Faults plan algebra, the
   degraded-mode executor (Simulate.run_faulty), the Resilient
   re-planning executor, the hardened trace parser and the typed
   Driver.Invalid_schedule channel.

   The anchor property is fault-free equivalence: with the empty plan,
   run_faulty must produce byte-identical stats to Simulate.run on every
   workload family - the fault machinery must cost the clean path
   nothing, not even a different attribution split. *)

let fetch = Fetch_op.make

let ok = function
  | Ok v -> v
  | Error (e : Simulate.error) ->
    Alcotest.failf "schedule rejected at t=%d: %s" e.Simulate.at_time e.Simulate.reason

(* ------------------------------------------------------------------ *)
(* Faults plan algebra. *)

let test_backoff () =
  let d retry attempt = Faults.backoff_delay retry ~attempt in
  Alcotest.(check int) "immediate" 0
    (d { Faults.backoff = Faults.Immediate; max_attempts = 3 } 1);
  Alcotest.(check int) "fixed" 5 (d { Faults.backoff = Faults.Fixed 5; max_attempts = 3 } 2);
  let exp = { Faults.backoff = Faults.Exponential { base = 1; factor = 2; max_delay = 8 };
              max_attempts = 9 } in
  Alcotest.(check (list int)) "exponential doubles then caps" [ 1; 2; 4; 8; 8 ]
    (List.map (fun a -> d exp a) [ 1; 2; 3; 4; 5 ])

let test_make_validation () =
  let rejects name f = Alcotest.check_raises name (Invalid_argument "") (fun () ->
      try f () with Faults.Invalid_plan _ -> raise (Invalid_argument ""))
  in
  rejects "fail_prob 1 (would livelock)" (fun () ->
      ignore (Faults.make ~fail_prob:1.0 ()));
  rejects "jitter_prob without max_jitter" (fun () ->
      ignore (Faults.make ~jitter_prob:0.5 ()));
  rejects "empty outage window" (fun () ->
      ignore (Faults.make ~outages:[ { Faults.disk = 0; from_time = 3; until_time = 3 } ] ()));
  rejects "overlapping outages" (fun () ->
      ignore
        (Faults.make
           ~outages:
             [ { Faults.disk = 0; from_time = 0; until_time = 5 };
               { Faults.disk = 0; from_time = 4; until_time = 8 } ]
           ()));
  (* Touching windows and different disks are fine. *)
  ignore
    (Faults.make
       ~outages:
         [ { Faults.disk = 0; from_time = 0; until_time = 5 };
           { Faults.disk = 0; from_time = 5; until_time = 8 };
           { Faults.disk = 1; from_time = 2; until_time = 7 } ]
       ());
  Alcotest.(check bool) "none is none" true (Faults.is_none Faults.none);
  Alcotest.(check bool) "outage plan is not none" false
    (Faults.is_none
       (Faults.make ~outages:[ { Faults.disk = 0; from_time = 0; until_time = 1 } ] ()))

let test_draw_deterministic_and_bounded () =
  let t = Faults.make ~seed:7 ~jitter_prob:0.5 ~max_jitter:3 ~fail_prob:0.4 () in
  let d1 = Faults.draw t ~fetch_time:4 ~disk:0 ~block:5 ~attempt:1 ~start:10 in
  let d2 = Faults.draw t ~fetch_time:4 ~disk:0 ~block:5 ~attempt:1 ~start:10 in
  Alcotest.(check bool) "same identity, same draw" true (d1 = d2);
  let failures = ref 0 and distinct = ref false in
  for start = 0 to 999 do
    let d = Faults.draw t ~fetch_time:4 ~disk:0 ~block:5 ~attempt:1 ~start in
    Alcotest.(check bool) "duration in [F, F + max_jitter]" true
      (d.Faults.duration >= 4 && d.Faults.duration <= 7);
    if d.Faults.failed then incr failures;
    if d <> d1 then distinct := true
  done;
  Alcotest.(check bool) "start time perturbs the draw" true !distinct;
  (* 1000 Bernoulli(0.4) draws: far from 0 and from 1000. *)
  Alcotest.(check bool) "failure rate plausible" true (!failures > 250 && !failures < 550);
  let clean = Faults.draw Faults.none ~fetch_time:4 ~disk:0 ~block:5 ~attempt:1 ~start:10 in
  Alcotest.(check bool) "empty plan never perturbs" true
    (clean.Faults.duration = 4 && not clean.Faults.failed)

let test_outage_windows () =
  let t =
    Faults.make
      ~outages:
        [ { Faults.disk = 0; from_time = 2; until_time = 5 };
          { Faults.disk = 0; from_time = 5; until_time = 6 } ]
      ()
  in
  Alcotest.(check bool) "up before" false (Faults.disk_down t ~disk:0 ~time:1);
  Alcotest.(check bool) "down inside" true (Faults.disk_down t ~disk:0 ~time:2);
  Alcotest.(check bool) "end exclusive" false (Faults.disk_down t ~disk:0 ~time:6);
  Alcotest.(check bool) "other disk unaffected" false (Faults.disk_down t ~disk:1 ~time:3);
  Alcotest.(check int) "next_up chains touching windows" 6 (Faults.next_up t ~disk:0 ~time:3);
  Alcotest.(check int) "next_up is identity when up" 1 (Faults.next_up t ~disk:0 ~time:1)

(* ------------------------------------------------------------------ *)
(* Fault-free equivalence: the tentpole property. *)

let equivalence_cases () =
  List.concat_map
    (fun (fam : Workload.family) ->
       List.concat_map
         (fun seed ->
            let seq = fam.Workload.generate ~seed ~n:60 ~num_blocks:12 in
            let single = Workload.single_instance ~k:6 ~fetch_time:4 seq in
            let par =
              Workload.parallel_instance ~k:6 ~fetch_time:4 ~num_disks:2
                ~layout:(fun ~num_blocks ~num_disks ->
                    Workload.striped_layout ~num_blocks ~num_disks)
                seq
            in
            [ (single, Aggressive.schedule single);
              (single, Conservative.schedule single);
              (par, Parallel_greedy.aggressive_schedule par) ])
         [ 1; 2; 3 ])
    Workload.families
  @
  let t2 = Workload.theorem2_lower_bound ~k:7 ~fetch_time:4 ~phases:3 in
  [ (t2, Aggressive.schedule t2) ]

let test_fault_free_equivalence () =
  List.iter
    (fun (inst, sched) ->
       let reference = ok (Simulate.run ~attribution:true inst sched) in
       let faulty, report =
         ok (Simulate.run_faulty ~attribution:true ~faults:Faults.none inst sched)
       in
       Alcotest.(check bool) "stats byte-identical to Simulate.run" true (reference = faulty);
       Alcotest.(check bool) "report empty" true (report = Faults.empty_report);
       (* The attribution partition must survive the faulty code path. *)
       let charged =
         List.fold_left
           (fun acc (fs : Simulate.fetch_stall) ->
              acc + fs.Simulate.involuntary_stall + fs.Simulate.voluntary_stall)
           0 faulty.Simulate.stall_by_fetch
       in
       Alcotest.(check int) "attribution partitions stall" faulty.Simulate.stall_time charged)
    (equivalence_cases ())

let test_fault_free_resilient_equivalence () =
  List.iter
    (fun (inst, sched) ->
       let reference = ok (Simulate.run inst sched) in
       let o = Resilient.execute ~faults:Faults.none inst sched in
       Alcotest.(check int) "resilient replays the plan faithfully"
         reference.Simulate.stall_time o.Resilient.stats.Simulate.stall_time;
       Alcotest.(check int) "same elapsed" reference.Simulate.elapsed_time
         o.Resilient.stats.Simulate.elapsed_time;
       Alcotest.(check bool) "no replan" true (o.Resilient.replanned_at = None);
       Alcotest.(check int) "no greedy fetches" 0 o.Resilient.greedy_fetches)
    (equivalence_cases ())

(* ------------------------------------------------------------------ *)
(* Degraded-mode semantics, pinned on hand-built scenarios. *)

(* seq 0 1 1, k=2, F=2, cache {0}; one prefetch of block 1 at t=0.
   Clean: fetch spans [0,2), request 1 stalls once at t=1. *)
let tiny () =
  ( Instance.single_disk ~k:2 ~fetch_time:2 ~initial_cache:[ 0 ] [| 0; 1; 1 |],
    [ fetch ~at_cursor:0 ~block:1 ~evict:None () ] )

let test_jitter_slows_fetch () =
  let inst, sched = tiny () in
  let clean = ok (Simulate.run inst sched) in
  Alcotest.(check int) "clean stall" 1 clean.Simulate.stall_time;
  let faults = Faults.make ~seed:3 ~jitter_prob:1.0 ~max_jitter:2 () in
  let s, r = ok (Simulate.run_faulty ~faults inst sched) in
  Alcotest.(check bool) "jitter recorded" true (r.Faults.injected_jitter >= 1);
  Alcotest.(check int) "each jitter unit is one extra stall unit"
    (clean.Simulate.stall_time + r.Faults.injected_jitter) s.Simulate.stall_time;
  Alcotest.(check bool) "extra stall attributed to the fault" true
    (r.Faults.fault_stall >= r.Faults.injected_jitter)

let test_outage_defers_start () =
  let inst, sched = tiny () in
  (* Disk down over [0,3): the fetch waits, starts at t=3, lands at t=5. *)
  let faults = Faults.make ~outages:[ { Faults.disk = 0; from_time = 0; until_time = 3 } ] () in
  let s, r = ok (Simulate.run_faulty ~faults inst sched) in
  Alcotest.(check int) "deferred start counted" 1 r.Faults.deferred_starts;
  Alcotest.(check int) "stall grows by the outage tail" 4 s.Simulate.stall_time;
  Alcotest.(check bool) "stall charged to the fault" true (r.Faults.fault_stall >= 3)

let test_outage_interrupts_in_flight () =
  let inst, sched = tiny () in
  (* Fetch starts at t=0, the disk dies at t=1: the attempt aborts without
     consuming a retry, relaunches at t=4, lands at t=6. *)
  let faults = Faults.make ~outages:[ { Faults.disk = 0; from_time = 1; until_time = 4 } ] () in
  let s, r = ok (Simulate.run_faulty ~faults inst sched) in
  Alcotest.(check int) "interrupt recorded" 1 r.Faults.outage_interrupts;
  Alcotest.(check int) "stall covers the restart" 5 s.Simulate.stall_time;
  Alcotest.(check int) "one logical fetch" 1 s.Simulate.fetches_completed;
  Alcotest.(check int) "busy time excludes the aborted attempt" 3 s.Simulate.disk_busy.(0)

let test_retry_until_abandon () =
  (* Find a seed whose first-attempt draw fails so the retry machinery is
     exercised deterministically; with fail_prob 0.9 the first seed tried
     virtually always works, but scan to be robust. *)
  let inst, sched = tiny () in
  let seed =
    let rec find s =
      if s > 200 then Alcotest.fail "no failing seed found"
      else
        let faults = Faults.make ~seed:s ~fail_prob:0.9 ~retry:{ Faults.backoff = Faults.Immediate; max_attempts = 2 } () in
        match Simulate.run_faulty ~faults inst sched with
        | Ok (_, r) when r.Faults.transient_failures > 0 -> s
        | Ok _ -> find (s + 1)
        | Error _ -> s
    in
    find 1
  in
  let retry = { Faults.backoff = Faults.Fixed 1; max_attempts = 3 } in
  let faults = Faults.make ~seed ~fail_prob:0.9 ~retry () in
  (match Simulate.run_faulty ~faults inst sched with
   | Ok (s, r) ->
     Alcotest.(check bool) "failures recorded" true (r.Faults.transient_failures > 0);
     Alcotest.(check bool) "retried" true (r.Faults.retries > 0);
     Alcotest.(check int) "block still arrived once" 1 s.Simulate.fetches_completed
   | Error _ -> ());
  (* max_attempts 1, forced failure: the fetch is abandoned and the
     requested block becomes unreachable - run_faulty reports the
     deadlock as a typed error, never an exception. *)
  let faults =
    Faults.make ~seed ~fail_prob:0.9 ~retry:{ Faults.backoff = Faults.Immediate; max_attempts = 1 } ()
  in
  match Simulate.run_faulty ~faults inst sched with
  | Ok (_, r) -> Alcotest.(check int) "no abandon means no failure drawn" 0 r.Faults.abandoned
  | Error e ->
    Alcotest.(check bool) "deadlock reason mentions the block" true
      (e.Simulate.at_time >= 0)

let test_event_stream_ordered () =
  let inst, sched = tiny () in
  let faults =
    Faults.make ~seed:5 ~jitter_prob:0.8 ~max_jitter:2 ~fail_prob:0.5
      ~outages:[ { Faults.disk = 0; from_time = 6; until_time = 8 } ]
      ()
  in
  match Simulate.run_faulty ~faults inst sched with
  | Error _ -> ()
  | Ok (_, r) ->
    let times = List.map Faults.event_time r.Faults.events in
    Alcotest.(check bool) "fault events are chronological" true
      (List.for_all2 (fun a b -> a <= b)
         (match times with [] -> [] | _ :: _ -> List.filteri (fun i _ -> i < List.length times - 1) times)
         (match times with [] -> [] | _ :: t -> t))

(* ------------------------------------------------------------------ *)
(* Resilient: completion and recovery under heavy faults. *)

let resilient_cases () =
  List.concat_map
    (fun (fam : Workload.family) ->
       List.map
         (fun seed ->
            let seq = fam.Workload.generate ~seed ~n:50 ~num_blocks:10 in
            let inst = Workload.single_instance ~k:5 ~fetch_time:4 seq in
            (seed, inst, Aggressive.schedule inst))
         [ 1; 2; 3; 4 ])
    Workload.families

let test_resilient_completes_under_faults () =
  List.iter
    (fun (seed, inst, sched) ->
       let faults =
         Faults.make ~seed:(seed * 13) ~jitter_prob:0.3 ~max_jitter:3 ~fail_prob:0.5
           ~retry:{ Faults.backoff = Faults.Fixed 2; max_attempts = 2 }
           ~outages:[ { Faults.disk = 0; from_time = 10; until_time = 20 } ]
           ()
       in
       let clean = ok (Simulate.run inst sched) in
       let o = Resilient.execute ~faults inst sched in
       let n = Instance.length inst in
       Alcotest.(check int) "every request served" (n + o.Resilient.stats.Simulate.stall_time)
         o.Resilient.stats.Simulate.elapsed_time;
       Alcotest.(check bool) "faults never improve stall" true
         (o.Resilient.stats.Simulate.stall_time >= clean.Simulate.stall_time);
       Alcotest.(check bool) "report counters non-negative" true
         (o.Resilient.report.Faults.retries >= 0 && o.Resilient.report.Faults.abandoned >= 0
          && o.Resilient.report.Faults.replans >= 0);
       (* Determinism: the same plan replays identically. *)
       let o2 = Resilient.execute ~faults inst sched in
       Alcotest.(check int) "deterministic stall" o.Resilient.stats.Simulate.stall_time
         o2.Resilient.stats.Simulate.stall_time;
       Alcotest.(check bool) "deterministic report" true
         (o.Resilient.report = o2.Resilient.report))
    (resilient_cases ())

let test_resilient_replans_after_abandon () =
  let inst, sched = tiny () in
  (* Force abandonment (single attempt, high fail prob, seed scanned to a
     failing draw): run_faulty deadlocks, Resilient re-plans and finishes. *)
  let rec find s =
    if s > 500 then Alcotest.fail "no abandoning seed found"
    else
      let faults =
        Faults.make ~seed:s ~fail_prob:0.9
          ~retry:{ Faults.backoff = Faults.Immediate; max_attempts = 1 } ()
      in
      match Simulate.run_faulty ~faults inst sched with
      | Error _ -> (s, faults)
      | Ok _ -> find (s + 1)
  in
  let _, faults = find 1 in
  let o = Resilient.execute ~faults inst sched in
  Alcotest.(check int) "finished all requests" 3
    (o.Resilient.stats.Simulate.elapsed_time - o.Resilient.stats.Simulate.stall_time);
  Alcotest.(check bool) "replanned" true (o.Resilient.replanned_at <> None);
  Alcotest.(check bool) "greedy fetch issued" true (o.Resilient.greedy_fetches >= 1)

let test_resilient_rejects_malformed () =
  let inst, _ = tiny () in
  Alcotest.check_raises "wrong home disk" (Invalid_argument "")
    (fun () ->
       try
         ignore
           (Resilient.execute ~faults:Faults.none inst [ fetch ~at_cursor:0 ~block:1 ~disk:3 ~evict:None () ])
       with Simulate.Invalid_schedule _ -> raise (Invalid_argument ""))

(* ------------------------------------------------------------------ *)
(* Hardened trace parser. *)

let with_trace_file contents f =
  let path = Filename.temp_file "ipc_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       let oc = open_out_bin path in
       output_string oc contents;
       close_out oc;
       f path)

let parse_fails ?line contents name =
  with_trace_file contents (fun path ->
      match Trace_io.load_instance path with
      | _ -> Alcotest.failf "%s: expected Parse_error" name
      | exception Trace_io.Parse_error { file; line = l; message = _ } ->
        Alcotest.(check string) (name ^ ": file") path file;
        (match line with
         | Some expected -> Alcotest.(check int) (name ^ ": line") expected l
         | None -> ()))

let test_parser_accepts_valid () =
  with_trace_file "# comment\nk 2\nf 2\n\nseq 0 1 0 1  # trailing comment\n" (fun path ->
      let inst = Trace_io.load_instance path in
      Alcotest.(check int) "k" 2 inst.Instance.cache_size;
      Alcotest.(check int) "n" 4 (Instance.length inst))

let test_parser_roundtrip () =
  let inst =
    Workload.parallel_instance ~k:4 ~fetch_time:3 ~num_disks:2
      ~layout:(fun ~num_blocks ~num_disks -> Workload.striped_layout ~num_blocks ~num_disks)
      (Workload.zipf ~seed:9 ~alpha:0.9 ~n:30 ~num_blocks:8)
  in
  let path = Filename.temp_file "ipc_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Trace_io.save_instance path inst;
       let back = Trace_io.load_instance path in
       Alcotest.(check bool) "roundtrip preserves the instance" true (inst = back))

let test_parser_rejections () =
  parse_fails ~line:3 "k 2\nf 2\nk 3\nseq 0 1\n" "duplicate k";
  parse_fails ~line:2 "k 2\nf 2\r\nseq 0 1\n" "CRLF line ending";
  parse_fails ~line:1 "k 99999999999999999999999\nf 2\nseq 0 1\n" "integer overflow";
  parse_fails ~line:1 "k 2 7\nf 2\nseq 0 1\n" "trailing garbage after k";
  parse_fails ~line:2 "k 2\nf 0x10\nseq 0 1\n" "hex literal";
  parse_fails ~line:2 "k 2\nf 1_0\nseq 0 1\n" "underscore literal";
  parse_fails ~line:3 "k 2\nf 2\nseq 0 -1x\n" "garbage in seq";
  parse_fails ~line:3 "k 2\nf 2\nbogus 1\n" "unknown key";
  parse_fails ~line:0 "k 2\nseq 0 1\n" "missing f";
  parse_fails ~line:0 "k 2\nf 2\ndisks 2\nseq 0 1\n" "layout required for disks > 1";
  parse_fails ~line:4 "k 2\nf 2\nseq 0 1\nk 3\nseq 0\n" "header key after seq"

(* Multiple [seq] lines concatenate in file order. *)
let test_parser_multi_seq () =
  with_trace_file "k 2\nf 2\nseq 0 1\n# interlude\nseq 0 2\nseq\nseq 1\n" (fun path ->
      let inst = Trace_io.load_instance path in
      Alcotest.(check bool) "concatenated seq" true (inst.Instance.seq = [| 0; 1; 0; 2; 1 |]))

(* The incremental reader: header parsed eagerly, requests streamed one at
   a time, and a malformed token deep in a large file reports the right
   line without the whole file resident. *)
let test_reader_streams () =
  with_trace_file "k 3\nf 2\ninit 0 1 2\nseq 0 1\nseq 2 0\n" (fun path ->
      Trace_io.with_reader path (fun r ->
          let h = Trace_io.header r in
          Alcotest.(check int) "k" 3 h.Trace_io.cache_size;
          Alcotest.(check int) "f" 2 h.Trace_io.fetch_time;
          Alcotest.(check (option (list int))) "init" (Some [ 0; 1; 2 ])
            h.Trace_io.initial_cache;
          let rec drain acc =
            match Trace_io.read_request r with
            | Some v -> drain (v :: acc)
            | None -> List.rev acc
          in
          Alcotest.(check (list int)) "streamed requests" [ 0; 1; 2; 0 ] (drain [])))

let test_reader_deep_malformed_line () =
  (* 40k requests over 4k seq lines; one bad token near the end.  The
     reader must stream up to it and report the exact line. *)
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf "k 4\nf 2\n";
  for line = 0 to 3999 do
    Buffer.add_string buf "seq";
    for i = 0 to 9 do
      if line = 3900 && i = 7 then Buffer.add_string buf " oops"
      else Buffer.add_string buf (Printf.sprintf " %d" ((line + i) mod 16))
    done;
    Buffer.add_char buf '\n'
  done;
  with_trace_file (Buffer.contents buf) (fun path ->
      Trace_io.with_reader path (fun r ->
          let rec drain n =
            match Trace_io.read_request r with
            | Some _ -> drain (n + 1)
            | None -> n
          in
          match drain 0 with
          | n -> Alcotest.failf "expected Parse_error, drained %d requests" n
          | exception Trace_io.Parse_error { line; message; _ } ->
            (* Bad token on the 3901st seq line; header is 2 lines. *)
            Alcotest.(check int) "error line" (2 + 3900 + 1) line;
            Alcotest.(check bool) "mentions token" true
              (let needle = "oops" in
               let lh = String.length message and ln = String.length needle in
               let rec loop i = i + ln <= lh && (String.sub message i ln = needle || loop (i + 1)) in
               loop 0)))

(* save_instance chunks long sequences over many lines; the roundtrip
   must still be exact. *)
let test_parser_chunked_roundtrip () =
  let seq = Array.init 5000 (fun i -> (i * 7) mod 97) in
  let inst = Instance.single_disk ~k:8 ~fetch_time:3 ~initial_cache:[ 0; 7; 14; 21 ] seq in
  let path = Filename.temp_file "ipc_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Trace_io.save_instance path inst;
       let ic = open_in path in
       let lines = ref 0 in
       (try
          while true do
            ignore (input_line ic);
            incr lines
          done
        with End_of_file -> close_in ic);
       Alcotest.(check bool) "seq split over multiple lines" true (!lines > 5);
       let back = Trace_io.load_instance path in
       Alcotest.(check bool) "chunked roundtrip" true (inst = back))

(* Tokenizer boundary pins: for each token, the value [read_request]
   returns or the line and message of the [Parse_error] it raises.
   Recorded against the substring tokenizer, before plain digit runs
   were parsed in place. *)
let read_all contents =
  with_trace_file contents (fun path ->
      Trace_io.with_reader path (fun r ->
          let rec drain acc =
            match Trace_io.read_request r with
            | Some v -> drain (v :: acc)
            | None -> Ok (List.rev acc)
          in
          try drain [] with Trace_io.Parse_error { line; message; _ } -> Error (line, message)))

let read_result = Alcotest.(result (list int) (pair int string))

let test_tokenizer_pins () =
  let token tok = read_all (Printf.sprintf "k 2\nf 2\nseq %s\n" tok) in
  let ok tok v = Alcotest.check read_result (Printf.sprintf "%S" tok) (Ok [ v ]) (token tok) in
  let bad tok message =
    Alcotest.check read_result (Printf.sprintf "%S" tok) (Error (3, message)) (token tok)
  in
  ok "0" 0;
  ok "-0" 0;
  ok "007" 7;
  ok "123456789012345678" 123_456_789_012_345_678;
  ok "999999999999999999" 999_999_999_999_999_999;
  ok "4611686018427387903" max_int;
  bad "4611686018427387904" "integer out of range: 4611686018427387904";
  ok "-4611686018427387904" min_int;
  bad "-4611686018427387905" "integer out of range: -4611686018427387905";
  bad "-" "not an integer: \"-\"";
  bad "--1" "not an integer: \"--1\"";
  bad "1-2" "not an integer: \"1-2\"";
  bad "+5" "not an integer: \"+5\"";
  bad "0x10" "not an integer: \"0x10\"";
  bad "1_0" "not an integer: \"1_0\"";
  bad "1\t2" "not an integer: \"1\\t2\"";
  let shape name contents expected =
    Alcotest.check read_result name expected (read_all contents)
  in
  shape "leading and double spaces, trailing comment"
    "k 2\nf 2\n   seq  1  2   3  # comment\n" (Ok [ 1; 2; 3 ]);
  shape "comment glued to a token" "k 2\nf 2\nseq 4 5# c\nseq 6\t# c\n" (Ok [ 4; 5; 6 ]);
  shape "trailing tab" "k 2\nf 2\nseq 7 8\t\n" (Ok [ 7; 8 ]);
  shape "bare seq between payload lines" "k 2\nf 2\nseq 1 2\nseq\nseq 3\n" (Ok [ 1; 2; 3 ]);
  shape "bare seq with a comment" "k 2\nf 2\nseq 1\nseq   # none\nseq 2\n" (Ok [ 1; 2 ]);
  shape "bad token after a comment line" "k 2\nf 2\nseq 1\n# note\nseq 2 x\n"
    (Error (5, "not an integer: \"x\""));
  shape "tab after seq" "k 2\nf 2\nseq 1\nseq\t2 3\n" (Error (4, "unknown key: seq\t2"))

(* ------------------------------------------------------------------ *)
(* Typed invalid-schedule channel. *)

let test_invalid_schedule_exception () =
  let inst = Instance.single_disk ~k:2 ~fetch_time:2 ~initial_cache:[ 0 ] [| 0; 1 |] in
  (* Fetching a resident block is rejected by the simulator. *)
  let bogus = [ fetch ~at_cursor:0 ~block:0 ~evict:None () ] in
  (match Driver.validate ~name:"Bogus" inst bogus with
   | _ -> Alcotest.fail "expected Invalid_schedule"
   | exception Driver.Invalid_schedule { algorithm; at_time; reason } ->
     Alcotest.(check string) "algorithm tag" "Bogus" algorithm;
     Alcotest.(check bool) "time and reason populated" true (at_time >= 0 && reason <> ""));
  (match Driver.validate ~name:"Bogus" inst bogus with
   | _ -> ()
   | exception exn ->
     let rendered = Printexc.to_string exn in
     Alcotest.(check bool) "registered printer renders the message" true
       (let needle = "Bogus produced an invalid schedule" in
        let lh = String.length rendered and ln = String.length needle in
        let rec loop i = i + ln <= lh && (String.sub rendered i ln = needle || loop (i + 1)) in
        loop 0));
  (* The valid path returns the stats unchanged. *)
  let good = [ fetch ~at_cursor:0 ~block:1 ~evict:None () ] in
  let s = Driver.validate ~name:"Good" inst good in
  Alcotest.(check int) "valid schedule passes through" 1 s.Simulate.stall_time

(* ------------------------------------------------------------------ *)
(* Chrome-trace fault lane. *)

let test_trace_fault_lane () =
  let inst, sched = tiny () in
  let faults = Faults.make ~outages:[ { Faults.disk = 0; from_time = 1; until_time = 4 } ] () in
  let s, r = ok (Simulate.run_faulty ~record_events:true ~faults inst sched) in
  let json = Sim_trace.to_string ~faults:r inst s in
  let contains needle =
    let lh = String.length json and ln = String.length needle in
    let rec loop i = i + ln <= lh && (String.sub json i ln = needle || loop (i + 1)) in
    loop 0
  in
  Alcotest.(check bool) "fault lane present" true (contains "\"faults\"");
  Alcotest.(check bool) "outage window exported" true (contains "outage d0");
  Alcotest.(check bool) "interrupt instant exported" true (contains "interrupted");
  (* Without a report the export is unchanged: no fault lane. *)
  let plain = Sim_trace.to_string inst s in
  let contains_plain needle =
    let lh = String.length plain and ln = String.length needle in
    let rec loop i = i + ln <= lh && (String.sub plain i ln = needle || loop (i + 1)) in
    loop 0
  in
  Alcotest.(check bool) "no fault lane by default" false (contains_plain "\"faults\"")

(* ------------------------------------------------------------------ *)
(* Randomized sweep: run_faulty invariants under arbitrary plans. *)

let prop_faulty_invariants =
  QCheck2.Test.make ~count:150 ~name:"run_faulty invariants under random plans"
    ~print:(fun (seed, jitter_pct, fail_pct, max_attempts) ->
      Printf.sprintf "seed=%d jitter=%d%% fail=%d%% max_attempts=%d" seed jitter_pct fail_pct
        max_attempts)
    QCheck2.Gen.(tup4 (int_range 0 5000) (int_range 0 100) (int_range 0 100) (int_range 1 3))
    (fun (seed, jitter_pct, fail_pct, max_attempts) ->
       let fail_prob = float_of_int (min fail_pct 99) /. 100.0 in
       let jitter_prob = float_of_int jitter_pct /. 100.0 in
       let faults =
         Faults.make ~seed ~jitter_prob ~max_jitter:(if jitter_prob > 0.0 then 3 else 0)
           ~fail_prob
           ~retry:{ Faults.backoff = Faults.Fixed 1; max_attempts }
           ~outages:[ { Faults.disk = 0; from_time = 7 + (seed mod 5); until_time = 12 + (seed mod 5) } ]
           ()
       in
       let seq = Workload.zipf ~seed:(seed + 1) ~alpha:0.9 ~n:40 ~num_blocks:10 in
       let inst = Workload.single_instance ~k:5 ~fetch_time:4 seq in
       let sched = Aggressive.schedule inst in
       (match Simulate.run_faulty ~faults inst sched with
        | Error _ -> ()  (* deadlock after abandonment is a legal outcome *)
        | Ok (s, r) ->
          assert (s.Simulate.elapsed_time = Instance.length inst + s.Simulate.stall_time);
          assert (s.Simulate.fetches_completed <= s.Simulate.fetches_started);
          assert (r.Faults.fault_stall <= s.Simulate.stall_time);
          assert (r.Faults.retries <= r.Faults.transient_failures + r.Faults.outage_interrupts);
          let charged =
            List.fold_left
              (fun acc (fs : Simulate.fetch_stall) ->
                 acc + fs.Simulate.involuntary_stall + fs.Simulate.voluntary_stall)
              0 s.Simulate.stall_by_fetch
          in
          assert (charged = s.Simulate.stall_time));
       (* Resilient must always complete on the same plan. *)
       let o = Resilient.execute ~faults inst sched in
       o.Resilient.stats.Simulate.elapsed_time
       = Instance.length inst + o.Resilient.stats.Simulate.stall_time)

let () =
  Alcotest.run "faults"
    [ ("plan",
       [ Alcotest.test_case "backoff" `Quick test_backoff;
         Alcotest.test_case "validation" `Quick test_make_validation;
         Alcotest.test_case "deterministic draws" `Quick test_draw_deterministic_and_bounded;
         Alcotest.test_case "outage windows" `Quick test_outage_windows ]);
      ("fault-free equivalence",
       [ Alcotest.test_case "run_faulty = run on all families" `Quick test_fault_free_equivalence;
         Alcotest.test_case "resilient = run on all families" `Quick
           test_fault_free_resilient_equivalence ]);
      ("degraded mode",
       [ Alcotest.test_case "jitter slows fetch" `Quick test_jitter_slows_fetch;
         Alcotest.test_case "outage defers start" `Quick test_outage_defers_start;
         Alcotest.test_case "outage interrupts in-flight" `Quick test_outage_interrupts_in_flight;
         Alcotest.test_case "retry until abandon" `Quick test_retry_until_abandon;
         Alcotest.test_case "event stream ordered" `Quick test_event_stream_ordered ]);
      ("resilient",
       [ Alcotest.test_case "completes under heavy faults" `Quick
           test_resilient_completes_under_faults;
         Alcotest.test_case "replans after abandonment" `Quick test_resilient_replans_after_abandon;
         Alcotest.test_case "rejects malformed schedules" `Quick test_resilient_rejects_malformed ]);
      ("trace parser",
       [ Alcotest.test_case "accepts valid" `Quick test_parser_accepts_valid;
         Alcotest.test_case "roundtrip" `Quick test_parser_roundtrip;
         Alcotest.test_case "rejections with line numbers" `Quick test_parser_rejections;
         Alcotest.test_case "multi-line seq" `Quick test_parser_multi_seq;
         Alcotest.test_case "incremental reader" `Quick test_reader_streams;
         Alcotest.test_case "deep malformed line" `Quick test_reader_deep_malformed_line;
         Alcotest.test_case "chunked roundtrip" `Quick test_parser_chunked_roundtrip;
         Alcotest.test_case "tokenizer boundary pins" `Quick test_tokenizer_pins ]);
      ("typed errors",
       [ Alcotest.test_case "Invalid_schedule" `Quick test_invalid_schedule_exception ]);
      ("chrome trace", [ Alcotest.test_case "fault lane" `Quick test_trace_fault_lane ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_faulty_invariants ]) ]
