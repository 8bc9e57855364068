(* perfbench: one benchmark for the whole pipeline - batch planning,
   streaming replay and the synchronized LP - measured end to end and
   layer by layer.

   Every workload is a set-up (trace generation, instance assembly,
   trace-file writing), repeated a fixed number of times, followed by
   measured rounds.  A round is the workload's fixed list of passes run
   back to back in one process and one domain: a closed loop with one
   client, each pass waiting for the previous one.  The library is
   driven only through its public functions, and its own [Telemetry]
   stays disabled (enabling it forces stall attribution inside
   [Simulate.run] and so changes the executor's work).

   Spans are recorded here, around the calls into each layer.  Calls
   that happen once per request or per decision ([decide], a source's
   [pull], the policy hooks) are too many to keep one by one: in traced
   rounds they are wrapped, and each wrapper adds its calls to one
   aggregate child of the span that was open when it was built.

   Usage:
     bench.exe run --workload W --seed N --seconds S --trace 0|1 --out-dir DIR
     bench.exe heap --file F --policy P --n N

   [run] prints a report and, as its last line, [RESULT <json>] with
   every metric it measured.  [heap] streams the first N requests of
   the trace file F under policy P and prints the process's
   top_heap_words.  NOTES.md explains the workloads and the metrics. *)

(* ------------------------------------------------------------------ *)
(* Clock and allocation *)

let now_ns = Telemetry.now_ns
let secs t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

(* Words allocated so far (minor + major - promoted).  For the caveats
   on repeating them, see [end_to_end]. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Spans, aggregates and counts *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root *)
  round : int;  (* -1 outside measured rounds: set-up and probes *)
  traced : bool;
  t0 : int64;
  mutable t1 : int64;
  w0 : float;
  mutable w1 : float;
}

type agg = { aname : string; aparent : int; mutable ns : int; mutable calls : int }

let tracing = ref false
let current_round = ref (-1)
let spans : span list ref = ref []  (* finished, newest first *)
let stack : span list ref = ref []
let aggs : agg list ref = ref []
let next_id = ref 0

let span name f =
  let parent = match !stack with s :: _ -> s.id | [] -> -1 in
  incr next_id;
  let w0 = alloc_words () in
  let t0 = now_ns () in
  let s =
    { id = !next_id; name; parent; round = !current_round; traced = !tracing; t0; t1 = t0; w0;
      w1 = w0 }
  in
  stack := s :: !stack;
  let close () =
    s.t1 <- now_ns ();
    s.w1 <- alloc_words ();
    stack := List.tl !stack;
    spans := s :: !spans
  in
  match f () with
  | r -> close (); r
  | exception e -> close (); raise e

let agg name =
  let aparent = match !stack with s :: _ -> s.id | [] -> -1 in
  let a = { aname = name; aparent; ns = 0; calls = 0 } in
  aggs := a :: !aggs;
  a

let add_since a t0 =
  a.ns <- a.ns + Int64.to_int (Int64.sub (now_ns ()) t0);
  a.calls <- a.calls + 1

let timed a f x =
  let t0 = now_ns () in
  let r = f x in
  add_since a t0;
  r

(* Exact per-round counts (fetches, pivots, ...), keyed by round. *)
let counts : (int * string, float) Hashtbl.t = Hashtbl.create 64

let count name v =
  let key = (!current_round, name) in
  let old = Option.value (Hashtbl.find_opt counts key) ~default:0.0 in
  Hashtbl.replace counts key (old +. float_of_int v)

(* ------------------------------------------------------------------ *)
(* Passes *)

type outcome = {
  requests : int;
  elapsed : int;  (* simulated elapsed time units *)
  stall : int;
  digest : int;  (* schedule / outcome fingerprint; every round must agree *)
}

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* [run ()] does the measured work and returns the output check, which
   runs outside the pass's span. *)
type pass = { pname : string; run : unit -> unit -> outcome }

let mix h x = (h * 0x100000001b3) lxor x

let digest_schedule (s : Fetch_op.schedule) =
  List.fold_left
    (fun h (op : Fetch_op.t) ->
       let e = match op.evict with Some b -> b | None -> -1 in
       mix (mix (mix (mix (mix h op.at_cursor) op.delay) op.disk) op.block) e)
    (List.length s) s

let replay_outcome ~name inst sched = function
  | Error (e : Simulate.error) ->
    count "simulate.rejects" 1;
    fail "%s: Simulate.run rejected the schedule at t=%d: %s" name e.at_time e.reason
  | Ok (st : Simulate.stats) ->
    let n = Instance.length inst in
    if st.elapsed_time <> n + st.stall_time then
      fail "%s: elapsed %d <> n %d + stall %d" name st.elapsed_time n st.stall_time;
    { requests = n; elapsed = st.elapsed_time; stall = st.stall_time;
      digest = mix (digest_schedule sched) st.stall_time }

let sched_pass name inst schedule =
  { pname = name;
    run =
      (fun () ->
         let sched = span ("sched." ^ name) schedule in
         let res = span "simulate.run" (fun () -> Simulate.run inst sched) in
         fun () ->
           count ("sched." ^ name ^ ".fetches") (List.length sched);
           replay_outcome ~name inst sched res) }

(* A [Driver.run] whose [decide] is timed in traced rounds; untraced
   rounds call the scheduler's own entry point. *)
let driver_schedule name inst decide plain () =
  if !tracing then begin
    let a = agg ("driver." ^ name ^ ".decide") in
    Driver.schedule (Driver.run inst ~decide:(timed a decide))
  end
  else plain inst

(* ---- plan_zipf_1m ---- *)

let plan_n = 1_000_000
let plan_blocks = plan_n / 64
let striped ~num_blocks ~num_disks = Workload.striped_layout ~num_blocks ~num_disks

type plan_ctx = { single : Instance.t; par : Instance.t; jitter : Faults.t; latency : Faults.t }

let plan_setup ~seed () =
  let seq =
    span "workload.gen" (fun () ->
        Workload.zipf ~seed ~alpha:0.9 ~n:plan_n ~num_blocks:plan_blocks)
  in
  { single = Workload.single_instance ~k:64 ~fetch_time:8 seq;
    par = Workload.parallel_instance ~k:64 ~fetch_time:8 ~num_disks:4 ~layout:striped seq;
    jitter = Faults.make ~seed ~jitter_prob:0.1 ~max_jitter:4 ();
    latency = Faults.make ~seed ~latency:(Faults.Uniform { lo = 2; hi = 8 }) () }

let plan_passes c =
  let single = c.single and par = c.par in
  let n = Instance.length single in
  (* Aggressive's schedule, replayed by the faulty and delayed passes. *)
  let aggressive = ref [] in
  let d0 = Bounds.delay_opt_d ~f:single.fetch_time in
  let faulty =
    { pname = "faulty";
      run =
        (fun () ->
           let res =
             span "simulate.faulty" (fun () ->
                 Simulate.run_faulty ~faults:c.jitter single !aggressive)
           in
           fun () ->
             match res with
             | Error e -> fail "faulty: run_faulty rejected at t=%d: %s" e.at_time e.reason
             | Ok (st, rep) ->
               count "faults.injected_jitter" rep.Faults.injected_jitter;
               count "faults.deferred_starts" rep.Faults.deferred_starts;
               if rep.Faults.abandoned <> 0 then fail "faulty: %d fetches abandoned" rep.abandoned;
               if st.elapsed_time <> n + st.stall_time then fail "faulty: elapsed <> n + stall";
               { requests = n; elapsed = st.elapsed_time; stall = st.stall_time;
                 digest = mix (mix st.stall_time rep.injected_jitter) rep.deferred_starts }) }
  in
  let delayed =
    { pname = "delayed";
      run =
        (fun () ->
           let res =
             span "delayed.run" (fun () ->
                 Delayed.run ~window:8 ~faults:c.latency single !aggressive)
           in
           aggressive := [];
           fun () ->
             match res with
             | Error e -> fail "delayed: Delayed.run rejected at t=%d: %s" e.at_time e.reason
             | Ok st ->
               let b = st.Delayed.base in
               count "delayed.delayed_hits" st.delayed_hits;
               count "delayed.max_queue_depth" st.max_queue_depth;
               if b.elapsed_time <> n - st.delayed_hits + b.stall_time then
                 fail "delayed: elapsed <> n - delayed hits + stall";
               { requests = n; elapsed = b.elapsed_time; stall = b.stall_time;
                 digest = mix (mix b.stall_time st.delayed_hits) st.max_queue_depth }) }
  in
  [ sched_pass "aggressive" single (fun () ->
        aggressive := [];
        let s = driver_schedule "aggressive" single Aggressive.decide Aggressive.schedule () in
        aggressive := s;
        s);
    faulty;
    delayed;
    sched_pass "conservative" single (fun () -> Conservative.schedule single);
    sched_pass "delay" single (fun () -> Delay.schedule ~d:d0 single);
    sched_pass "combination" single (fun () -> Combination.schedule single);
    sched_pass "fixed_horizon" single (fun () -> Fixed_horizon.schedule single);
    sched_pass "online" single (fun () -> Online.schedule (Online.aggressive ~lookahead:32) single);
    sched_pass "reverse_aggressive" single (fun () -> Reverse_aggressive.schedule single);
    sched_pass "parallel_aggressive_d4" par
      (driver_schedule "parallel_aggressive_d4" par Parallel_greedy.aggressive_decide
         Parallel_greedy.aggressive_schedule);
    sched_pass "parallel_conservative_d4" par (fun () ->
        Parallel_greedy.conservative_schedule par) ]

let plan_probes c () = ignore (span "next_ref.build" (fun () -> Next_ref.of_instance c.single))

(* ---- stream_phase_1m ---- *)

let stream_n = 1_000_000
let stream_window = 64
let policies = [ "aggressive"; "delay"; "demand"; "obl"; "markov" ]

let stream_setup ~seed ~path () =
  let seq =
    span "workload.gen" (fun () ->
        Workload.phase_shift ~seed ~n:stream_n ~num_blocks:15_625 ~phase_len:4096
          ~working_set:48)
  in
  let inst = Workload.single_instance ~k:64 ~fetch_time:8 seq in
  span "trace_io.write" (fun () -> Trace_io.save_instance path inst)

let builder p =
  match Prefetcher.find p with
  | Some b -> b
  | None -> failwith ("no registered prefetch policy " ^ p)

(* The source's [pull], timed. *)
let traced_source (src : Stream.source) =
  let a = agg "trace_io.pull" in
  { src with pull = timed a src.pull }

(* The policy's four hooks, timed, plus the accounting behind
   useful_ratio: an inserted block is useful when a request finds it
   resident before its eviction, or was already waiting for it (a miss
   that the insertion serves).  The accounting's own time is an
   aggregate of its own, so it does not land in the engine's self
   time. *)
let traced_policy p (pol : Stream.policy) =
  let hook = agg ("prefetcher." ^ p ^ ".hook") in
  let acct = agg "perfbench.accounting" in
  let inserted = ref 0 and useful = ref 0 in
  let resident = Hashtbl.create 128 and awaited = Hashtbl.create 16 in
  let account t1 f =
    f ();
    add_since acct t1
  in
  let on_find t ~block ~hit =
    let t0 = now_ns () in
    pol.on_find t ~block ~hit;
    add_since hook t0;
    account (now_ns ()) (fun () ->
        if not hit then Hashtbl.replace awaited block ()
        else if Hashtbl.mem resident block then begin
          incr useful;
          Hashtbl.remove resident block
        end)
  in
  let on_insert t ~block =
    let t0 = now_ns () in
    pol.on_insert t ~block;
    add_since hook t0;
    account (now_ns ()) (fun () ->
        incr inserted;
        if Hashtbl.mem awaited block then begin
          incr useful;
          Hashtbl.remove awaited block
        end
        else Hashtbl.replace resident block ())
  in
  let on_evict t ~block =
    let t0 = now_ns () in
    pol.on_evict t ~block;
    add_since hook t0;
    account (now_ns ()) (fun () -> Hashtbl.remove resident block)
  in
  let policy = { pol with prefetch = timed hook pol.prefetch; on_find; on_insert; on_evict } in
  (policy, fun () -> (!inserted, !useful))

(* What [ipc stream --file] runs: k, F and the initial cache come from
   the trace file's header. *)
let stream_file reader ~source ~policy =
  let h = Trace_io.header reader in
  Stream.run
    ~initial_cache:(Option.value h.initial_cache ~default:[])
    ~k:h.cache_size ~fetch_time:h.fetch_time ~window:stream_window
    (source (Stream.of_reader reader))
    (policy ~fetch_time:h.fetch_time)

let stream_pass ~path p =
  let build = builder p in
  let name = "stream." ^ p in
  { pname = name;
    run =
      (fun () ->
         let reader = span "trace_io.open" (fun () -> Trace_io.open_reader path) in
         let usefulness = ref None in
         let traced_build ~fetch_time =
           let policy, u = traced_policy p (build ~fetch_time) in
           usefulness := Some u;
           policy
         in
         let out =
           Fun.protect
             ~finally:(fun () -> Trace_io.close_reader reader)
             (fun () ->
                span name (fun () ->
                    if !tracing then stream_file reader ~source:traced_source ~policy:traced_build
                    else stream_file reader ~source:Fun.id ~policy:build))
         in
         fun () ->
           let o = out in
           count (name ^ ".fetches") o.Stream.fetches;
           count (name ^ ".demand_fetches") o.demand_fetches;
           count (name ^ ".refills") o.refills;
           Option.iter
             (fun u ->
                let inserted, useful = u () in
                count ("prefetcher." ^ p ^ ".inserted") inserted;
                count ("prefetcher." ^ p ^ ".useful") useful)
             !usefulness;
           if o.served <> stream_n then fail "%s: served %d of %d requests" name o.served stream_n;
           if o.elapsed_time <> o.served + o.stall_time then
             fail "%s: elapsed %d <> served %d + stall %d" name o.elapsed_time o.served
               o.stall_time;
           { requests = o.served; elapsed = o.elapsed_time; stall = o.stall_time;
             digest =
               List.fold_left mix o.stall_time [ o.fetches; o.demand_fetches; o.refills ] }) }

(* ---- lp_sync_d4 ---- *)

(* The instance of the scale_parallel_lp_pipeline_i1090_d4 bench entry:
   1090 candidate intervals at D = 4.  It is pinned (Zipf seed 1), so
   the workload seed does not change it. *)
let lp_setup () =
  let seq = span "workload.gen" (fun () -> Workload.zipf ~seed:1 ~alpha:0.9 ~n:220 ~num_blocks:8) in
  Workload.parallel_instance ~k:6 ~fetch_time:4 ~num_disks:4 ~layout:striped seq

let lp_pass inst =
  { pname = "rounding";
    run =
      (fun () ->
         let before = Simplex.stats_snapshot () in
         let r = span "rounding" (fun () -> Rounding.solve inst) in
         let st = Simplex.stats_since before in
         fun () ->
           count "simplex.pivots" st.pivots;
           count "simplex.refactorizations" st.refactorizations;
           count "simplex.warm_accepts" st.warm_accepts;
           count "simplex.fallbacks" st.fallbacks;
           count "rounding.candidates_tried" r.Rounding.candidates_tried;
           count "rounding.used_fallback" (if r.used_fallback then 1 else 0);
           let n = Instance.length inst and stall = r.stats.stall_time in
           if Bigint.compare (Rat.ceil r.lp_value) (Bigint.of_int stall) > 0 then
             fail "rounding: stall %d below the LP bound %s" stall
               (Bigint.to_string (Rat.ceil r.lp_value));
           let extra_slots = 2 * (inst.num_disks - 1) in
           (match Simulate.run ~extra_slots inst r.schedule with
            | Error e -> fail "rounding: replay rejected at t=%d: %s" e.at_time e.reason
            | Ok s when s.stall_time <> stall ->
              fail "rounding: replay stall %d <> reported %d" s.stall_time stall
            | Ok _ -> ());
           if r.stats.elapsed_time <> n + stall then fail "rounding: elapsed <> n + stall";
           { requests = n; elapsed = r.stats.elapsed_time; stall;
             digest = mix (digest_schedule r.schedule) st.pivots }) }

let lp_probes inst () =
  let built = span "sync_lp.build" (fun () -> Sync_lp.build inst) in
  count "sync_lp.intervals" (Array.length built.intervals);
  ignore (span "lp.solve" (fun () -> Sync_lp.solve inst))

(* ---- registry ---- *)

type workload = {
  setup_reps : int;  (* set-ups per run; [setup_s] is their median *)
  prepare : unit -> pass list * (unit -> unit);  (* one set-up: passes and probes *)
}

let workload name ~seed ~dir =
  match name with
  | "plan_zipf_1m" ->
    Some
      { setup_reps = 9;
        prepare =
          (fun () ->
             let c = span "setup" (plan_setup ~seed) in
             (plan_passes c, plan_probes c)) }
  | "stream_phase_1m" ->
    let path = Filename.concat dir "phase.trace" in
    Some
      { setup_reps = 9;
        prepare =
          (fun () ->
             span "setup" (stream_setup ~seed ~path);
             (List.map (stream_pass ~path) policies, fun () -> ())) }
  | "lp_sync_d4" ->
    Some
      { setup_reps = 1001;
        prepare =
          (fun () ->
             let inst = span "setup" lp_setup in
             ([ lp_pass inst ], lp_probes inst)) }
  | _ -> None

let workload_names = [ "plan_zipf_1m"; "stream_phase_1m"; "lp_sync_d4" ]

(* ------------------------------------------------------------------ *)
(* Rounds *)

type pass_record = {
  pround : int;
  ptraced : bool;
  pass : string;
  wall : float;
  words : float;
  cal_before : float;  (* calibration kernel time just before the pass *)
  mutable cal : float;  (* mean of the kernel times before and after it *)
  mutable result : (outcome, string) result;
}

(* ------------------------------------------------------------------ *)
(* Machine-speed calibration

   Shared machines drift in speed by 20% and more over tens of seconds
   under other tenants' load, which no amount of repetition inside one
   run averages away.  So every measured interval is bracketed by a
   fixed calibration kernel - a cache-resident LRU simulation written
   here, sharing no code with the library and allocating nothing, so
   neither a change to the library nor its garbage can move it - and
   the end-to-end times are reported at a reference machine speed:
   [wall *. reference_kernel_s /. kernel].  NOTES.md gives the
   measurements behind this.  Raw wall-clock figures are reported
   beside them. *)

let reference_kernel_s = 0.04
let cal_blocks = 65536
let cal_prev = Array.make cal_blocks (-1)
let cal_next = Array.make cal_blocks (-1)
let cal_inside = Array.make cal_blocks false
let cal_hits = Array.make 8192 0

let kernel () =
  let t0 = now_ns () in
  Array.fill cal_prev 0 cal_blocks (-1);
  Array.fill cal_next 0 cal_blocks (-1);
  Array.fill cal_inside 0 cal_blocks false;
  let head = ref (-1) and tail = ref (-1) and size = ref 0 in
  let unlink b =
    let p = cal_prev.(b) and n = cal_next.(b) in
    if p >= 0 then cal_next.(p) <- n else head := n;
    if n >= 0 then cal_prev.(n) <- p else tail := p
  in
  let push b =
    cal_prev.(b) <- -1;
    cal_next.(b) <- !head;
    if !head >= 0 then cal_prev.(!head) <- b;
    head := b;
    if !tail < 0 then tail := b
  in
  let x = ref 12345 in
  for _ = 1 to 1_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let r = !x land 0xffff in
    let b = (r * r) lsr 16 in
    let h = Hashtbl.hash b land 8191 in
    cal_hits.(h) <- cal_hits.(h) + 1;
    if cal_inside.(b) then begin unlink b; push b end
    else begin
      if !size >= 4096 then begin
        let v = !tail in
        unlink v;
        cal_inside.(v) <- false;
        decr size
      end;
      cal_inside.(b) <- true;
      push b;
      incr size
    end
  done;
  secs t0 (now_ns ())

(* The first run after a pass finds the kernel's arrays evicted from
   the cache, so it is not timed; the faster of the next two is kept. *)
let calibrate () =
  ignore (kernel ());
  let a = kernel () in
  Float.min a (kernel ())

let run_pass p =
  let cal_before = calibrate () in
  let run = try Ok (span ("pass:" ^ p.pname) p.run) with e -> Error (Printexc.to_string e) in
  let s = List.hd !spans in
  let result =
    match run with
    | Error m -> Error m
    | Ok check -> (
        try Ok (check ()) with
        | Check_failed m -> Error m
        | e -> Error (Printexc.to_string e))
  in
  { pround = s.round; ptraced = s.traced; pass = p.pname; wall = secs s.t0 s.t1;
    words = s.w1 -. s.w0; cal_before; cal = cal_before; result }

(* A pass's calibration is the mean of the kernel runs on either side of
   it: its own [cal_before] and the next pass's (or [final]). *)
let settle_calibration records ~final =
  let rec go = function
    | r :: (next :: _ as rest) ->
      r.cal <- (r.cal_before +. next.cal_before) /. 2.0;
      go rest
    | [ r ] -> r.cal <- (r.cal_before +. final) /. 2.0
    | [] -> ()
  in
  go records

let at_reference wall cal = wall *. reference_kernel_s /. cal

(* Every round must produce the same schedules and outcomes as the
   first: across untraced rounds this is determinism, against traced
   rounds it shows the wrappers leave the program unchanged. *)
let check_digests records =
  let first = Hashtbl.create 16 in
  List.iter
    (fun r ->
       match r.result with
       | Error _ -> ()
       | Ok o -> (
           match Hashtbl.find_opt first r.pass with
           | None -> Hashtbl.replace first r.pass o
           | Some o0 ->
             if o.digest <> o0.digest || o.elapsed <> o0.elapsed || o.requests <> o0.requests then
               r.result <-
                 Error
                   (Printf.sprintf "%s: round %d (%s) differs from round 0" r.pass r.pround
                      (if r.ptraced then "traced" else "untraced"))))
    records

(* Requests per second over one round's passes; [calibrated] rescales
   each pass's wall time to the reference machine speed. *)
let round_throughput ?(calibrated = false) records round =
  let rs = List.filter (fun r -> r.pround = round) records in
  let req =
    List.fold_left (fun a r -> match r.result with Ok o -> a + o.requests | Error _ -> a) 0 rs
  in
  let wall =
    List.fold_left
      (fun a r -> a +. if calibrated then at_reference r.wall r.cal else r.wall)
      0.0 rs
  in
  float_of_int req /. wall

let median_throughput ?calibrated records =
  let rounds = List.sort_uniq compare (List.map (fun r -> r.pround) records) in
  median (List.map (round_throughput ?calibrated records) rounds)

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { mname : string; value : float; unit_ : string }

let m mname unit_ value = { mname; value; unit_ }

let dur s = secs s.t0 s.t1

(* The simulated times and the words come from round 0, which is always
   untraced.  A pass's word count moves by up to 0.5% from round to round
   (the runtime's counters depend on where the minor heap stands when
   the pass starts), so a later round would make it depend on how many
   rounds fit in the run. *)
let end_to_end ~records ~setup_wall ~setup_cal ~peak_words =
  let untraced = List.filter (fun r -> not r.ptraced) records in
  let first = List.filter (fun r -> r.pround = 0) records in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 first in
  let ok f r = match r.result with Ok o -> float_of_int (f o) | Error _ -> 0.0 in
  let requests = sum (ok (fun o -> o.requests)) in
  let failed = List.length (List.filter (fun r -> Result.is_error r.result) records) in
  let failed_frac = float_of_int failed /. float_of_int (List.length records) in
  [ m "throughput_req_s" "req/s" (median_throughput ~calibrated:true untraced);
    m "wall_throughput_req_s" "req/s" (median_throughput untraced);
    m "stall_per_req" "units/req" (sum (ok (fun o -> o.stall)) /. requests);
    m "elapsed_per_req" "units/req" (sum (ok (fun o -> o.elapsed)) /. requests);
    m "alloc_words_per_req" "words/req" (sum (fun r -> r.words) /. requests);
    m "peak_heap_mb" "MB" (peak_words *. float_of_int (Sys.word_size / 8) /. 1048576.0);
    m "setup_s" "s" (at_reference setup_wall setup_cal);
    m "wall_setup_s" "s" setup_wall;
    m "calibration_kernel_s" "s" (median (List.map (fun r -> r.cal) records));
    m "failed_frac" "fraction" failed_frac;
    m "passed_frac" "fraction" (1.0 -. failed_frac) ]

(* Self time of every span and aggregate inside the traced rounds' passes,
   per round.  A pass's own self time is [unattributed_s], so the rows
   sum to the pass wall time. *)
let self_times ~traced_rounds =
  let in_traced s = s.round >= 0 && s.traced in
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) !spans;
  let children = Hashtbl.create 256 in
  let add_child parent secs =
    Hashtbl.replace children parent
      (secs +. Option.value (Hashtbl.find_opt children parent) ~default:0.0)
  in
  List.iter (fun s -> if in_traced s && s.parent >= 0 then add_child s.parent (dur s)) !spans;
  let traced_aggs =
    List.filter
      (fun a -> match Hashtbl.find_opt by_id a.aparent with Some s -> in_traced s | None -> false)
      !aggs
  in
  List.iter (fun a -> add_child a.aparent (float_of_int a.ns *. 1e-9)) traced_aggs;
  let rows = Hashtbl.create 64 in
  let add row secs =
    Hashtbl.replace rows row (secs +. Option.value (Hashtbl.find_opt rows row) ~default:0.0)
  in
  let is_pass s = String.length s.name > 5 && String.sub s.name 0 5 = "pass:" in
  let pass_total = ref 0.0 in
  List.iter
    (fun s ->
       if in_traced s && s.name <> "round" then begin
         let self = dur s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.0 in
         if is_pass s then begin
           pass_total := !pass_total +. dur s;
           add "unattributed_s" self
         end
         else add s.name self
       end)
    !spans;
  List.iter (fun a -> add a.aname (float_of_int a.ns *. 1e-9)) traced_aggs;
  let r = float_of_int traced_rounds in
  let rows = Hashtbl.fold (fun k v acc -> (k, v /. r) :: acc) rows [] in
  (List.sort (fun (_, a) (_, b) -> Float.compare b a) rows, !pass_total /. r, by_id, traced_aggs)

let per_layer ~records ~traced_rounds ~by_id ~traced_aggs ~pass_s ~unattributed =
  let r = float_of_int traced_rounds in
  let spans_named name = List.filter (fun s -> s.name = name) !spans in
  let traced_secs name =
    List.fold_left (fun a s -> if s.round >= 0 && s.traced then a +. dur s else a) 0.0
      (spans_named name)
    /. r
  in
  (* Words from round 0, untraced, as for alloc_words_per_req. *)
  let round0_words name =
    List.fold_left (fun a s -> if s.round = 0 then a +. (s.w1 -. s.w0) else a) 0.0
      (spans_named name)
  in
  (* Set-up and probe spans: median time, words of the last one. *)
  let outside_secs name =
    median (List.filter_map (fun s -> if s.round < 0 then Some (dur s) else None) (spans_named name))
  in
  let outside_words name =
    match List.find_opt (fun s -> s.round < 0) (spans_named name) with
    | Some s -> s.w1 -. s.w0
    | None -> 0.0
  in
  let agg_under ?parent name field =
    List.fold_left
      (fun acc a ->
         let p = Hashtbl.find_opt by_id a.aparent in
         let parent_ok =
           match (parent, p) with None, _ -> true | Some n, Some s -> s.name = n | _ -> false
         in
         if a.aname = name && parent_ok then acc +. field a else acc)
      0.0 traced_aggs
    /. r
  in
  let agg_secs ?parent name = agg_under ?parent name (fun a -> float_of_int a.ns *. 1e-9) in
  let agg_calls name = agg_under name (fun a -> float_of_int a.calls) in
  let cnt name =
    Hashtbl.fold
      (fun (round, n) v acc ->
         if n = name && List.exists (fun p -> p.pround = round && p.ptraced) records then acc +. v
         else acc)
      counts 0.0
    /. r
  in
  let next_ref_s = outside_secs "next_ref.build" in
  let sched s =
    let secs = traced_secs ("sched." ^ s) in
    [ m ("sched." ^ s ^ ".s") "s" secs;
      m ("sched." ^ s ^ ".words") "words" (round0_words ("sched." ^ s));
      m ("sched." ^ s ^ ".fetches") "count" (cnt ("sched." ^ s ^ ".fetches")) ]
  in
  let driver s =
    let decide = agg_secs ("driver." ^ s ^ ".decide") in
    let total = traced_secs ("sched." ^ s) in
    [ m ("driver." ^ s ^ ".decide_s") "s" decide;
      m ("driver." ^ s ^ ".bookkeeping_s") "s"
        (if total > 0.0 then total -. decide -. next_ref_s else 0.0);
      m ("driver." ^ s ^ ".decide_calls") "count" (agg_calls ("driver." ^ s ^ ".decide")) ]
  in
  let stream p =
    let name = "stream." ^ p in
    let s = traced_secs name in
    let hook = agg_secs ("prefetcher." ^ p ^ ".hook") in
    let inserted = cnt ("prefetcher." ^ p ^ ".inserted") in
    [ m (name ^ ".s") "s" s;
      m (name ^ ".words") "words" (round0_words name);
      m (name ^ ".fetches") "count" (cnt (name ^ ".fetches"));
      m (name ^ ".demand_fetches") "count" (cnt (name ^ ".demand_fetches"));
      m (name ^ ".refills") "count" (cnt (name ^ ".refills"));
      m (name ^ ".engine_s") "s"
        (s -. hook
         -. agg_secs ~parent:name "trace_io.pull"
         -. agg_secs ~parent:name "perfbench.accounting");
      m ("prefetcher." ^ p ^ ".hook_s") "s" hook;
      m ("prefetcher." ^ p ^ ".useful_ratio") "fraction"
        (if inserted > 0.0 then cnt ("prefetcher." ^ p ^ ".useful") /. inserted else 0.0) ]
  in
  let rounding_s = traced_secs "rounding" and lp_solve_s = outside_secs "lp.solve" in
  [ m "workload.gen_s" "s" (outside_secs "workload.gen");
    m "workload.gen_words" "words" (outside_words "workload.gen");
    m "trace_io.write_s" "s" (outside_secs "trace_io.write");
    m "trace_io.pull_s" "s" (agg_secs "trace_io.pull");
    m "next_ref.build_s" "s" next_ref_s;
    m "next_ref.build_words" "words" (outside_words "next_ref.build") ]
  @ List.concat_map sched
      [ "aggressive"; "conservative"; "delay"; "combination"; "fixed_horizon"; "online";
        "reverse_aggressive"; "parallel_aggressive_d4"; "parallel_conservative_d4" ]
  @ List.concat_map driver [ "aggressive"; "parallel_aggressive_d4" ]
  @ [ m "simulate.run_s" "s" (traced_secs "simulate.run");
      m "simulate.run_words" "words" (round0_words "simulate.run");
      m "simulate.rejects" "count" (cnt "simulate.rejects");
      m "simulate.faulty_s" "s" (traced_secs "simulate.faulty");
      m "simulate.faulty_words" "words" (round0_words "simulate.faulty");
      m "faults.injected_jitter" "count" (cnt "faults.injected_jitter");
      m "faults.deferred_starts" "count" (cnt "faults.deferred_starts");
      m "delayed.run_s" "s" (traced_secs "delayed.run");
      m "delayed.run_words" "words" (round0_words "delayed.run");
      m "delayed.delayed_hits" "count" (cnt "delayed.delayed_hits");
      m "delayed.max_queue_depth" "count" (cnt "delayed.max_queue_depth") ]
  @ List.concat_map stream policies
  @ [ m "sync_lp.build_s" "s" (outside_secs "sync_lp.build");
      m "sync_lp.intervals" "count"
        (Option.value (Hashtbl.find_opt counts (-1, "sync_lp.intervals")) ~default:0.0);
      m "lp.solve_s" "s" lp_solve_s;
      m "lp.solve_words" "words" (outside_words "lp.solve");
      m "simplex.pivots" "count" (cnt "simplex.pivots");
      m "simplex.refactorizations" "count" (cnt "simplex.refactorizations");
      m "simplex.warm_accepts" "count" (cnt "simplex.warm_accepts");
      m "simplex.fallbacks" "count" (cnt "simplex.fallbacks");
      m "rounding.s" "s" rounding_s;
      m "rounding.self_s" "s" (if rounding_s > 0.0 then rounding_s -. lp_solve_s else 0.0);
      m "rounding.candidates_tried" "count" (cnt "rounding.candidates_tried");
      m "rounding.used_fallback" "count" (cnt "rounding.used_fallback");
      m "pass_s" "s" pass_s;
      m "unattributed_s" "s" unattributed ]

(* ------------------------------------------------------------------ *)
(* Output *)

(* Not [Tjson]: it prints floats with 12 significant digits, and the
   result keeps every digit. *)
let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_string s = "\"" ^ String.escaped s ^ "\""

let result_json ~correct ~attempted ~failed ~metrics ~artifacts =
  let metric x =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.mname) (json_float x.value)
      (json_string x.unit_)
  in
  let artifact (k, v) = Printf.sprintf "%s: %s" (json_string k) (json_string v) in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}, \"artifacts\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
    (String.concat ", " (List.map artifact artifacts))

(* Chrome trace of every span.  An aggregate is drawn as one slice
   inside its parent, packed from the parent's start, with its call
   count in [args]. *)
let write_chrome path ~workload ~base =
  let us t = Int64.to_int (Int64.div (Int64.sub t base) 1000L) in
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) !spans;
  let span_event s =
    Trace_event.duration ~cat:"perfbench" ~name:s.name ~ts:(us s.t0)
      ~dur:(max 0 (us s.t1 - us s.t0))
      ~tid:1
      ~args:
        [ ("round", Tjson.Int s.round); ("traced", Tjson.Bool s.traced);
          ("words", Tjson.Float (s.w1 -. s.w0)) ]
      ()
  in
  let offsets = Hashtbl.create 64 in
  let agg_event a =
    match Hashtbl.find_opt by_id a.aparent with
    | None -> None
    | Some p ->
      let off = Option.value (Hashtbl.find_opt offsets a.aparent) ~default:0 in
      let d = a.ns / 1000 in
      Hashtbl.replace offsets a.aparent (off + d);
      Some
        (Trace_event.duration ~cat:"perfbench.aggregate" ~name:a.aname ~ts:(us p.t0 + off)
           ~dur:d ~tid:1
           ~args:[ ("calls", Tjson.Int a.calls); ("aggregated", Tjson.Bool true) ]
           ())
  in
  let events =
    (Trace_event.process_name ("perfbench " ^ workload) :: Trace_event.thread_name ~tid:1 "main"
     :: List.rev_map span_event !spans)
    @ List.filter_map agg_event (List.rev !aggs)
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Trace_event.write oc events)

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-44s %18.6f  %s\n" x.mname x.value x.unit_) ms

(* ------------------------------------------------------------------ *)
(* Commands *)

let run_cmd ~name ~seed ~seconds ~trace ~dir =
  let w =
    match workload name ~seed ~dir with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %s (choose from: %s)\n" name
        (String.concat ", " workload_names);
      exit 2
  in
  let base = now_ns () in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%b\n%!" name seed seconds trace;
  let prepared = ref None in
  let cal_before = calibrate () in
  for _ = 1 to w.setup_reps do
    prepared := Some (w.prepare ())
  done;
  let setup_cal = (cal_before +. calibrate ()) /. 2.0 in
  let passes, probes = Option.get !prepared in
  let setup_wall =
    median (List.filter_map (fun s -> if s.name = "setup" then Some (dur s) else None) !spans)
  in
  let records = ref [] in
  let peak_words = ref 0.0 in
  let start = now_ns () in
  let round = ref 0 in
  while !round < (if trace then 2 else 1) || secs start (now_ns ()) < seconds do
    let traced = trace && !round mod 2 = 1 in
    current_round := !round;
    tracing := traced;
    let rs = span "round" (fun () -> List.map run_pass passes) in
    records := !records @ rs;
    if !round = 0 then peak_words := float_of_int (Gc.quick_stat ()).top_heap_words;
    Printf.printf "round %d (%s): %d passes, %.3f s, %.1f req/s (wall clock)\n%!" !round
      (if traced then "traced" else "untraced")
      (List.length rs)
      (List.fold_left (fun a r -> a +. r.wall) 0.0 rs)
      (round_throughput rs !round);
    incr round
  done;
  settle_calibration !records ~final:(calibrate ());
  current_round := -1;
  tracing := false;
  if trace then probes ();
  let records = !records in
  check_digests records;
  List.iter
    (fun r ->
       match r.result with
       | Error msg -> Printf.printf "FAILED round %d pass %s: %s\n" r.pround r.pass msg
       | Ok _ -> ())
    records;
  let e2e = end_to_end ~records ~setup_wall ~setup_cal ~peak_words:!peak_words in
  print_metrics
    (Printf.sprintf "end-to-end (tracing off, %d rounds, closed loop, one client):"
       (List.length (List.sort_uniq compare
                       (List.filter_map (fun r -> if r.ptraced then None else Some r.pround) records))))
    e2e;
  let layers, artifacts =
    if not trace then ([], [])
    else begin
      let traced_rounds =
        List.length
          (List.sort_uniq compare
             (List.filter_map (fun r -> if r.ptraced then Some r.pround else None) records))
      in
      let rows, pass_s, by_id, traced_aggs = self_times ~traced_rounds in
      let unattributed = Option.value (List.assoc_opt "unattributed_s" rows) ~default:0.0 in
      Printf.printf "self time per traced round (%d traced rounds):\n" traced_rounds;
      List.iter (fun (row, v) -> Printf.printf "  %-44s %12.6f s\n" row v) rows;
      let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 rows in
      Printf.printf "  %-44s %12.6f s (pass wall time %.6f s)\n" "sum" total pass_s;
      let thr traced =
        median_throughput ~calibrated:true (List.filter (fun r -> r.ptraced = traced) records)
      in
      let untraced_thr = thr false and traced_thr = thr true in
      Printf.printf "tracing overhead: untraced %.1f req/s, traced %.1f req/s (calibrated)\n"
        untraced_thr traced_thr;
      let layers =
        per_layer ~records ~traced_rounds ~by_id ~traced_aggs ~pass_s ~unattributed
        @ [ m "trace.overhead_frac" "fraction" ((untraced_thr /. traced_thr) -. 1.0) ]
      in
      print_metrics "per-layer (times from traced rounds, words from round 0):" layers;
      let chrome = Filename.concat dir "trace.json" in
      write_chrome chrome ~workload:name ~base;
      Printf.printf "chrome trace: %s\n" chrome;
      (layers, [ ("chrome_trace", chrome) ])
    end
  in
  let artifacts =
    if name = "stream_phase_1m" then ("input", Filename.concat dir "phase.trace") :: artifacts
    else artifacts
  in
  let attempted = List.length records in
  let failed = List.length (List.filter (fun r -> Result.is_error r.result) records) in
  print_endline
    ("RESULT "
     ^ result_json ~correct:(failed = 0) ~attempted ~failed ~metrics:(e2e @ layers) ~artifacts)

let heap_cmd ~file ~policy ~n =
  let out =
    Trace_io.with_reader file (fun r ->
        stream_file r ~source:(Stream.take n) ~policy:(builder policy))
  in
  Printf.printf "served %d top_heap_words %d\n" out.served (Gc.quick_stat ()).top_heap_words

let () =
  let usage =
    "bench.exe run --workload W --seed N --seconds S --trace 0|1 --out-dir DIR\n\
     bench.exe heap --file F --policy P --n N"
  in
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let dir = ref "." and file = ref "" and policy = ref "" and n = ref 0 in
  let specs =
    [ ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measure for at least this long");
      ("--trace", Arg.Set_int trace, " 1: also run traced rounds and report per-layer metrics");
      ("--out-dir", Arg.Set_string dir, " directory for the trace file and the Chrome trace");
      ("--file", Arg.Set_string file, " heap: trace file to stream");
      ("--policy", Arg.Set_string policy, " heap: prefetch policy");
      ("--n", Arg.Set_int n, " heap: number of requests") ]
  in
  match Array.to_list Sys.argv with
  | _ :: cmd :: _ when cmd = "run" || cmd = "heap" -> (
      (try Arg.parse_argv ~current:(ref 1) Sys.argv specs (fun _ -> ()) usage with
       | Arg.Bad msg | Arg.Help msg ->
         prerr_string msg;
         exit 2);
      match cmd with
      | "run" ->
        run_cmd ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~dir:!dir
      | _ -> heap_cmd ~file:!file ~policy:!policy ~n:!n)
  | _ ->
    prerr_endline usage;
    exit 2
