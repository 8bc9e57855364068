(* Reference executor/validator for prefetching/caching schedules.

   This is the ground truth of the reproduction: every algorithm's output
   and every LP rounding is fed through [run], which either rejects the
   schedule with a reason or reports its exact stall time, elapsed time and
   peak cache occupancy under the model of Section 1 of the paper.

   Timeline semantics (time advances in whole units):
   - at instant [t]: fetches completing at [t] deposit their block in cache;
     then fetches whose start time is [t] begin (performing their eviction);
   - during [t, t+1): if the next unserved request's block is in cache it is
     served (cursor advances), otherwise the unit is processor stall time.
   - a fetch anchored at cursor [c] with delay [d] starts at
     [first_time_cursor_reached(c) + d].

   Stall benefits all in-flight fetches simultaneously, which is exactly the
   parallel-disk behaviour described in the paper's two-disk example.

   Beyond validation, the executor is the system's primary telemetry
   source.  Per-disk busy time is always tracked (charged per fetch start,
   not per simulated unit, so the hot loop is unchanged).  When
   [attribution] is requested (or the global telemetry registry is
   enabled) each stall unit is additionally *charged to the fetch that
   caused it*: the fetch supplying the block the processor is waiting on.
   If that fetch is already in flight the unit is an involuntary stall
   (the disk simply has not finished); if it is still armed - scheduled
   but deliberately started later - the unit is a voluntary-delay stall,
   the algorithm's choice.  For every accepted schedule the charges
   partition the stall: sum over fetches of (involuntary + voluntary)
   equals [stall_time] exactly; the delayed-hits literature calls this
   stall-time attribution and it is the lens the ROADMAP's latency work
   needs.

   Arming.  Pending fetches are walked in start order
   ([Fetch_op.compare_start], ties by schedule index) with one pointer:
   a schedule already in that order, as almost every [Driver] log is,
   is used as it is, and only an out-of-order one gets a sorted index
   copy.  Reaching a cursor arms the fetches anchored there into a small
   int heap keyed by (start time, start order).  Nothing here is sized by
   the trace, and arming and starting allocate nothing.

   Stall runs.  In strict mode (no fault plan, no parking) the instants
   after a stall unit repeat it exactly until the next completion or
   armed start, so the whole run is taken at once: added to the stall,
   charged to the fetch its first unit was charged to, and recorded as
   one [Stall] event per unit when events are kept.  The jump is capped
   at horizon + 1, so the deadlock rejection fires at the same instant.
   Degraded mode steps one unit at a time, because a jittered attempt's
   fault-stall charge changes partway through a run.

   One loop, three entry points.  [exec] is the only timeline loop;
   [run], [run_faulty] and {!Delayed.run} differ only in what they hand
   it.  [run_faulty] adds a {!Faults} plan: fetch attempts may be slowed
   (duration F + d), fail transiently (retried under the plan's backoff
   policy, bounded attempts) or be interrupted by timed whole-disk
   outages.  {!Delayed.run} adds a parking window - a request whose block
   is in flight parks on the fetch instead of stalling (a delayed hit) -
   and takes latency-only plans.  With [Faults.none] and no parking the
   executed path is the strict one and the stats are [run]'s.

   Degraded mode.  Under a non-empty plan, or with parking, the strict
   plan-consistency rejections are relaxed - a start on a busy or down
   disk waits its turn instead of rejecting - because the divergence is
   the plan's doing, not the schedule's.  A start that has become
   inapplicable (block already resident or in flight, eviction victim
   gone) follows one of two rules, chosen by the entry point:
   - [run_faulty] keeps one FIFO per disk and drops such a start,
     counted.  Under failures this is necessary: an abandoned fetch's
     block never lands, so a start waiting for it to become evictable
     would wait forever.
   - {!Delayed.run} keeps one global FIFO in armed order and defers such
     a start until it applies.  Under latency-only plans every fetch
     lands, so waiting is always productive, and it is necessary:
     starting while the victim is still absent would skip the eviction
     and leak a cache slot for good.  The global order also makes
     degenerate timing replay the strict start order exactly. *)

type event =
  | Serve of { time : int; index : int; block : Instance.block }
  | Stall of { time : int }
  | Fetch_start of { time : int; fetch : Fetch_op.t }
  | Fetch_complete of { time : int; fetch : Fetch_op.t }

type fetch_stall = {
  fetch : Fetch_op.t;
  fetch_index : int;  (* position in the submitted schedule *)
  involuntary_stall : int;  (* units stalled while this fetch was in flight *)
  voluntary_stall : int;  (* units stalled while this fetch was armed but delayed *)
}

type stats = {
  stall_time : int;
  elapsed_time : int;
  fetches_started : int;
  fetches_completed : int;
  peak_occupancy : int;  (* max over time of |cache| + #in-flight fetches *)
  events : event list;  (* chronological *)
  disk_busy : int array;  (* per-disk busy time units (always computed) *)
  stall_by_fetch : fetch_stall list;  (* schedule order; empty unless [attribution] *)
  occupancy : (int * int) list;  (* (time, |cache| + in-flight) at change points;
                                    empty unless [attribution] *)
}

type error = {
  reason : string;
  at_time : int;
}

type wait = {
  req_index : int;
  block : Instance.block;
  disk : int;
  parked_at : int;
  ready_at : int;
  queue_depth : int;
}

type outcome = {
  base : stats;
  delayed_hits : int;
  delayed_wait : int;
  max_queue_depth : int;
  waits : wait list;
  report : Faults.report;
}

let pp_event fmt = function
  | Serve { time; index; block } -> Format.fprintf fmt "t=%-3d serve r%d (b%d)" time (index + 1) block
  | Stall { time } -> Format.fprintf fmt "t=%-3d stall" time
  | Fetch_start { time; fetch } -> Format.fprintf fmt "t=%-3d start %a" time Fetch_op.pp fetch
  | Fetch_complete { time; fetch } -> Format.fprintf fmt "t=%-3d done  %a" time Fetch_op.pp fetch

let pp_stats fmt s =
  Format.fprintf fmt "stall=%d elapsed=%d fetches=%d peak_occupancy=%d" s.stall_time
    s.elapsed_time s.fetches_completed s.peak_occupancy

let pp_fetch_stall fmt a =
  Format.fprintf fmt "%a: involuntary=%d voluntary=%d" Fetch_op.pp a.fetch a.involuntary_stall
    a.voluntary_stall

exception Reject of error

let rejectf at_time fmt = Printf.ksprintf (fun reason -> raise (Reject { reason; at_time })) fmt

(* Typed channel for "a solver or executor hit a state its own model says
   is impossible" - distinct from [Invalid_schedule] (a bad schedule) and
   from user errors.  One exception instead of per-module [failwith]s, so
   the CLI and Measure can catch internal bugs uniformly without also
   swallowing every [Failure] in sight. *)
exception Internal_error of { component : string; reason : string }

let () =
  Printexc.register_printer (function
    | Internal_error { component; reason } ->
      Some (Printf.sprintf "%s: internal error: %s" component reason)
    | _ -> None)

let internal_error ~component fmt =
  Printf.ksprintf (fun reason -> raise (Internal_error { component; reason })) fmt

(* Registry handles (registration is once-per-name and happens eagerly;
   all mutations below are gated on [Telemetry.enabled]). *)
let m_runs = Telemetry.counter "simulate.runs"
let m_rejected = Telemetry.counter "simulate.rejected"
let m_stall_units = Telemetry.counter "simulate.stall_units"
let m_stall_involuntary = Telemetry.counter "simulate.stall.involuntary"
let m_stall_voluntary = Telemetry.counter "simulate.stall.voluntary"
let m_fetches = Telemetry.counter "simulate.fetches_completed"
let m_stall_hist = Telemetry.histogram "simulate.stall_time"
let m_peak_hist = Telemetry.histogram "simulate.peak_occupancy"
let m_util_hist = Telemetry.histogram "simulate.disk_utilization"

(* Fault-injection counters, bumped only by [run_faulty]. *)
let m_faulty_runs = Telemetry.counter "simulate.faulty_runs"
let m_f_jitter = Telemetry.counter "faults.injected_jitter"
let m_f_failures = Telemetry.counter "faults.transient_failures"
let m_f_retries = Telemetry.counter "faults.retries"
let m_f_abandoned = Telemetry.counter "faults.abandoned"
let m_f_deferred = Telemetry.counter "faults.deferred_starts"
let m_f_interrupts = Telemetry.counter "faults.outage_interrupts"
let m_f_dropped = Telemetry.counter "faults.dropped_fetches"
let m_f_stall = Telemetry.counter "faults.stall_units"

(* Delayed-hit counters, bumped at each park. *)
let m_hits = Telemetry.counter "delayed.hits"
let m_wait_units = Telemetry.counter "delayed.wait_units"
let m_residual_hist = Telemetry.histogram "delayed.residual_wait"
let m_depth_hist = Telemetry.histogram "delayed.queue_depth"

let record_fault_telemetry (r : Faults.report) =
  if Telemetry.enabled () then begin
    Telemetry.incr m_faulty_runs;
    Telemetry.add m_f_jitter r.Faults.injected_jitter;
    Telemetry.add m_f_failures r.Faults.transient_failures;
    Telemetry.add m_f_retries r.Faults.retries;
    Telemetry.add m_f_abandoned r.Faults.abandoned;
    Telemetry.add m_f_deferred r.Faults.deferred_starts;
    Telemetry.add m_f_interrupts r.Faults.outage_interrupts;
    Telemetry.add m_f_dropped r.Faults.dropped_fetches;
    Telemetry.add m_f_stall r.Faults.fault_stall
  end

let record_run_telemetry = function
  | Ok s ->
    if Telemetry.enabled () then begin
      Telemetry.incr m_runs;
      Telemetry.add m_stall_units s.stall_time;
      Telemetry.add m_fetches s.fetches_completed;
      List.iter
        (fun a ->
           Telemetry.add m_stall_involuntary a.involuntary_stall;
           Telemetry.add m_stall_voluntary a.voluntary_stall)
        s.stall_by_fetch;
      Telemetry.observe_int m_stall_hist s.stall_time;
      Telemetry.observe_int m_peak_hist s.peak_occupancy;
      if s.elapsed_time > 0 then
        Array.iter
          (fun busy -> Telemetry.observe m_util_hist (float_of_int busy /. float_of_int s.elapsed_time))
          s.disk_busy
    end
  | Error _ -> if Telemetry.enabled () then Telemetry.incr m_rejected

(* Armed fetches: a binary min-heap of (start time, start rank) pairs in
   two growable int arrays.  The rank is an op's position in start order,
   so the heap pops in exactly the order a sorted (start time, op) list
   would, and arming or starting allocates nothing once the heap has
   grown to the largest armed set (a handful of ops, not the schedule). *)
module Armed = struct
  type t = { mutable time : int array; mutable rank : int array; mutable len : int }

  let create () = { time = Array.make 16 0; rank = Array.make 16 0; len = 0 }
  let is_empty h = h.len = 0

  let before h i j =
    h.time.(i) < h.time.(j) || (h.time.(i) = h.time.(j) && h.rank.(i) < h.rank.(j))

  let swap h i j =
    let tm = h.time.(i) and rk = h.rank.(i) in
    h.time.(i) <- h.time.(j);
    h.rank.(i) <- h.rank.(j);
    h.time.(j) <- tm;
    h.rank.(j) <- rk

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if before h i parent then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 in
    if l < h.len then begin
      let best = if l + 1 < h.len && before h (l + 1) l then l + 1 else l in
      if before h best i then begin
        swap h i best;
        sift_down h best
      end
    end

  let push h ~time ~rank =
    if h.len = Array.length h.time then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      h.time <- grow h.time;
      h.rank <- grow h.rank
    end;
    h.time.(h.len) <- time;
    h.rank.(h.len) <- rank;
    h.len <- h.len + 1;
    sift_up h (h.len - 1)

  (* The top entry; the heap must be non-empty. *)
  let top_time h = h.time.(0)
  let top_rank h = h.rank.(0)

  let pop h =
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.time.(0) <- h.time.(h.len);
      h.rank.(0) <- h.rank.(h.len);
      sift_down h 0
    end
end

(* [extra_slots] extends capacity beyond k (the paper's parallel algorithm
   is allowed 2(D-1) extra locations).  [record_events] controls whether the
   full event trace is accumulated (examples want it; sweeps do not).
   [attribution] additionally charges every stall unit to a fetch and
   samples the occupancy timeline; it is forced on while the telemetry
   registry is enabled so metrics dumps always carry the attribution.
   [window] is passed by the delayed-hit entry point only: it bounds the
   parked requests and selects the defer start rule. *)
let exec ?window ~extra_slots ~record_events ~attribution ~(faults : Faults.t)
    (inst : Instance.t) (schedule : Fetch_op.schedule) : (outcome, error) Result.t =
  let n = Instance.length inst in
  let seq = inst.Instance.seq in
  let capacity = inst.Instance.cache_size + extra_slots in
  let num_blocks = Instance.num_blocks inst in
  let num_disks = inst.Instance.num_disks in
  let fetch_time = inst.Instance.fetch_time in
  let faulty = not (Faults.is_none faults) in
  let defer = Option.is_some window in
  let window = Option.value window ~default:0 in
  let strict = (not faulty) && window = 0 in
  (* Failures, retries and outages exist only under [run_faulty]. *)
  let retrying = faulty && not defer in
  let attribution = attribution || faulty || Telemetry.enabled () in
  (* Static validation of fetch operations (shared wording across
     executors lives in [Fetch_op.validate]). *)
  let validate f =
    match Fetch_op.validate inst f with Ok () -> () | Error reason -> rejectf 0 "%s" reason
  in
  try
    List.iter validate schedule;
    (* Fetch operations are tracked by their index in the submitted
       schedule so stall charges can name the exact operation. *)
    let ops = Array.of_list schedule in
    let nops = Array.length ops in
    (* State. *)
    let in_cache = Array.make num_blocks false in
    List.iter (fun b -> in_cache.(b) <- true) inst.Instance.initial_cache;
    let cache_count = ref (List.length inst.Instance.initial_cache) in
    (* flight_op.(d): op in flight on disk d, or -1; flight_end.(d): the
       instant it completes. *)
    let flight_op = Array.make num_disks (-1) in
    let flight_end = Array.make num_disks 0 in
    let in_flight_count = ref 0 in
    (* block_in_flight.(b): op fetching block b, or -1. *)
    let block_in_flight = Array.make num_blocks (-1) in
    let disk_busy = Array.make num_disks 0 in
    (* Cache-slot reservations: a fetch holds its slot from first start
       until final success or abandonment, across retries.  Fault-free,
       this equals [in_flight_count] at every capacity check. *)
    let reserved = ref 0 in
    (* Stall charges, indexed like [ops]. *)
    let involuntary = Array.make (if attribution then nops else 0) 0 in
    let voluntary = Array.make (if attribution then nops else 0) 0 in
    (* Per-op fault state, empty on paths that never read it. *)
    let fsz = if faulty then nops else 0 in
    let cur_jitter = Array.make fsz false in
    let cur_start = Array.make fsz 0 in
    let was_deferred = Array.make fsz false in
    let rsz = if retrying then nops else 0 in
    let attempts = Array.make rsz 0 in
    let cur_fail = Array.make rsz false in
    (* Outage-interrupted ops relaunch with the SAME attempt number (an
       interrupt does not consume an attempt) and keep their reservation
       and eviction from the original start. *)
    let redraw = Array.make rsz false in
    (* Parked requests per supplying op, newest first (parking only). *)
    let waiters = Array.make (if window > 0 then nops else 0) [] in
    let parked = ref 0 in
    let delayed_hits = ref 0 and delayed_wait = ref 0 and max_depth = ref 0 in
    let waits = ref [] in
    (* Ready-to-start ops (first attempts and due retries) waiting for
       their turn: one FIFO per disk under the drop rule, one global FIFO
       in armed order under the defer rule. *)
    let waiting =
      Array.init (if strict then 0 else if defer then 1 else num_disks) (fun _ -> Queue.create ())
    in
    let waiting_count = ref 0 in
    (* Failed attempts in backoff: (ready_time, op_index), sorted. *)
    let retryq = ref [] in
    let retryq_add ready i = retryq := List.merge compare !retryq [ (ready, i) ] in
    (* Fault report accumulators. *)
    let f_jitter = ref 0 and f_failures = ref 0 and f_retries = ref 0 in
    let f_abandoned = ref 0 and f_deferred = ref 0 and f_interrupts = ref 0 in
    let f_dropped = ref 0 and f_skipped_evict = ref 0 and f_stall = ref 0 in
    let fevents = ref [] in
    let fevent e = fevents := e :: !fevents in
    (* Start order (see "Arming" above); [op_at k] is the op of rank k. *)
    let rec sorted_from i =
      i >= nops - 1 || (Fetch_op.compare_start ops.(i) ops.(i + 1) <= 0 && sorted_from (i + 1))
    in
    let in_order = sorted_from 0 in
    let order =
      if in_order then [||]
      else begin
        let order = Array.init nops Fun.id in
        Array.stable_sort (fun i1 i2 -> Fetch_op.compare_start ops.(i1) ops.(i2)) order;
        order
      end
    in
    let op_at k = if in_order then k else order.(k) in
    (* Pending fetches are the ranks from [next_pending] on.  Every cursor
       is armed once, in increasing order, which moves the ops anchored
       there into the heap with their absolute start times. *)
    let next_pending = ref 0 in
    let armed = Armed.create () in
    let arm time c =
      while !next_pending < nops && ops.(op_at !next_pending).Fetch_op.at_cursor = c do
        let k = !next_pending in
        Armed.push armed ~time:(time + ops.(op_at k).Fetch_op.delay) ~rank:k;
        incr next_pending
      done
    in
    let events = ref [] in
    let record e = events := e :: !events in
    let occupancy = ref [] in
    let last_occ = ref (-1) in
    let sample_occ t =
      if attribution then begin
        let occ = !cache_count + !in_flight_count in
        if occ <> !last_occ then begin
          occupancy := (t, occ) :: !occupancy;
          last_occ := occ
        end
      end
    in
    let stall = ref 0 in
    let started = ref 0 in
    let completed = ref 0 in
    let peak = ref !cache_count in
    let cursor = ref 0 in
    let t = ref 0 in
    let note_occupancy () =
      if !cache_count + !in_flight_count > !peak then peak := !cache_count + !in_flight_count;
      sample_occ !t
    in
    (* Provenance events (opt-in, {!Event_log}): executor-side fetch
       issue/complete plus stall intervals aggregated from unit stalls
       and attributed to the block the cursor is waiting on. *)
    let prov_stall_from = ref (-1) in
    let prov_issue (f : Fetch_op.t) =
      if Event_log.enabled () then
        Event_log.record
          (Event_log.Fetch_issue
             { time = !t; cursor = !cursor; block = f.Fetch_op.block; disk = f.Fetch_op.disk;
               evict = f.Fetch_op.evict })
    in
    let prov_complete ~disk (f : Fetch_op.t) =
      if Event_log.enabled () then
        Event_log.record
          (Event_log.Fetch_complete { time = !t; block = f.Fetch_op.block; disk })
    in
    let prov_serve b =
      (* [prov_stall_from] is only ever set while the log is enabled. *)
      if !prov_stall_from >= 0 then begin
        Event_log.record
          (Event_log.Stall_interval
             { from_time = !prov_stall_from; until_time = !t; cursor = !cursor; block = b });
        prov_stall_from := -1
      end
    in
    let prov_stall () =
      if Event_log.enabled () && !prov_stall_from < 0 then prov_stall_from := !t
    in
    arm 0 0;
    sample_occ 0;
    (* Deadlock guard.  Every stall unit lies in some fetch's armed
       interval (its delay) or in-flight interval (one attempt), and
       parking adds no time, so one worst-case attempt per fetch bounds
       the run; under retries and outages add the worst case of every
       retry, backoff wait and outage window. *)
    let horizon =
      let worst = Faults.max_latency faults ~fetch_time + faults.Faults.max_jitter in
      let span latency =
        n + List.fold_left (fun acc f -> acc + latency + f.Fetch_op.delay) 0 schedule + 1
      in
      if not retrying then span worst
      else begin
        let retry = faults.Faults.retry and outages = faults.Faults.outages in
        let backoff_total = ref 0 in
        for a = 1 to retry.Faults.max_attempts - 1 do
          backoff_total := !backoff_total + Faults.backoff_delay retry ~attempt:a
        done;
        let outage_total =
          List.fold_left (fun acc (o : Faults.outage) -> acc + o.until_time - o.from_time) 0 outages
        in
        span fetch_time + outage_total
        + (nops * (((retry.Faults.max_attempts + List.length outages) * worst) + !backoff_total))
        + 16
      end
    in
    let occupy i duration =
      let f = ops.(i) in
      flight_op.(f.Fetch_op.disk) <- i;
      flight_end.(f.Fetch_op.disk) <- !t + duration;
      incr in_flight_count;
      block_in_flight.(f.Fetch_op.block) <- i;
      (* Disks never pause: the fetch occupies the disk for exactly
         [duration] units, so busy time is charged up front and the
         unfinished tail is refunded after the loop - no per-unit
         bookkeeping. *)
      disk_busy.(f.Fetch_op.disk) <- disk_busy.(f.Fetch_op.disk) + duration
    in
    let announce i =
      if record_events then record (Fetch_start { time = !t; fetch = ops.(i) });
      prov_issue ops.(i)
    in
    (* Strict start: the paper's plan-consistency checks, rejecting. *)
    let strict_start i =
      let f = ops.(i) in
      let open Fetch_op in
      if flight_op.(f.disk) >= 0 then
        rejectf !t "disk %d already busy when fetch of b%d starts" f.disk f.block;
      if in_cache.(f.block) then rejectf !t "fetch of b%d but it is already in cache" f.block;
      if block_in_flight.(f.block) >= 0 then rejectf !t "fetch of b%d already in flight" f.block;
      (match f.evict with
       | Some b ->
         (* A block being fetched is not yet resident, so the residency
            check below would also fire - but the precise reason
            matters, and the dedicated check keeps the invariant
            independent of the deposit ordering above. *)
         if block_in_flight.(b) >= 0 then
           rejectf !t "eviction of b%d during its own in-flight fetch window" b;
         if not in_cache.(b) then rejectf !t "eviction of b%d which is not in cache" b;
         in_cache.(b) <- false;
         decr cache_count
       | None -> ());
      (* The started fetch reserves a slot for the incoming block. *)
      if !cache_count + !reserved + 1 > capacity then rejectf !t "cache capacity %d exceeded" capacity;
      occupy i fetch_time;
      incr reserved;
      incr started;
      announce i
    in
    (* One attempt of op [i] with a duration drawn from the plan. *)
    let attempt i a =
      let f = ops.(i) in
      let d = Faults.draw faults ~fetch_time ~disk:f.Fetch_op.disk ~block:f.Fetch_op.block
          ~attempt:a ~start:!t
      in
      let extra = d.Faults.duration - fetch_time in
      if retrying then begin
        attempts.(i) <- a;
        cur_fail.(i) <- d.Faults.failed
      end;
      if faulty then begin
        cur_jitter.(i) <- extra > 0;
        cur_start.(i) <- !t
      end;
      if extra > 0 then begin
        f_jitter := !f_jitter + extra;
        fevent (Faults.Slow { time = !t; disk = f.Fetch_op.disk; block = f.Fetch_op.block; extra })
      end;
      occupy i d.Faults.duration
    in
    (* First attempt of a degraded-mode start, once applicable: evict the
       victim if it is still resident and reserve the incoming slot. *)
    let first_start i =
      let f = ops.(i) in
      (match f.Fetch_op.evict with
       | Some b when in_cache.(b) ->
         in_cache.(b) <- false;
         decr cache_count
       | Some _ -> incr f_skipped_evict
       | None -> ());
      attempt i 1;
      incr reserved;
      if !cache_count + !reserved > capacity then
        internal_error ~component:"simulate"
          "t=%d cursor %d: start of b%d overfills the cache (%d resident + %d reserved > %d)" !t
          !cursor f.Fetch_op.block !cache_count !reserved capacity;
      incr started;
      announce i
    in
    (* Drop rule, on an idle and up disk: a first start that no longer
       applies - block resident or in flight, victim gone and no free
       slot - is dropped and counted; a retry or outage relaunch whose
       block arrived meanwhile releases its reservation and is dropped. *)
    let drop_start i =
      let f = ops.(i) in
      let arrived = in_cache.(f.Fetch_op.block) || block_in_flight.(f.Fetch_op.block) >= 0 in
      if attempts.(i) = 0 && not redraw.(i) then begin
        let no_victim = match f.Fetch_op.evict with Some b -> not in_cache.(b) | None -> true in
        if arrived || (no_victim && !cache_count + !reserved + 1 > capacity) then incr f_dropped
        else first_start i
      end
      else if arrived then begin
        decr reserved;
        incr f_dropped
      end
      else begin
        (* The slot is still reserved and the eviction already happened
           on the first attempt. *)
        let was_redraw = redraw.(i) in
        let a = if was_redraw then max attempts.(i) 1 else attempts.(i) + 1 in
        redraw.(i) <- false;
        attempt i a;
        if not was_redraw then begin
          incr f_retries;
          fevent
            (Faults.Retry
               { time = !t; disk = f.Fetch_op.disk; block = f.Fetch_op.block; attempt = a })
        end;
        announce i
      end
    in
    (* Defer rule: a queued op starts once its disk is idle, its block is
       neither resident nor in flight, and its eviction is performable -
       a resident victim (net occupancy unchanged), or a free slot for a
       no-evict fetch.  An absent victim is still in flight or queued and
       will land. *)
    let startable i =
      let f = ops.(i) in
      flight_op.(f.Fetch_op.disk) < 0
      && (not in_cache.(f.Fetch_op.block))
      && block_in_flight.(f.Fetch_op.block) < 0
      &&
      match f.Fetch_op.evict with
      | Some v -> in_cache.(v)
      | None -> !cache_count + !reserved + 1 <= capacity
    in
    let mark_deferred i =
      if faulty && not was_deferred.(i) then begin
        was_deferred.(i) <- true;
        incr f_deferred
      end
    in
    let mark_queue q = Queue.iter mark_deferred q in
    let enqueue i =
      Queue.add i waiting.(if defer then 0 else ops.(i).Fetch_op.disk);
      incr waiting_count
    in
    let rec start_due () =
      if not (Armed.is_empty armed) then begin
        let start_time = Armed.top_time armed in
        let i = op_at (Armed.top_rank armed) in
        if start_time = !t then begin
          Armed.pop armed;
          strict_start i;
          start_due ()
        end
        else if start_time < !t then begin
          (* The heap is drained at every instant the clock stops at, so
             an overdue entry means the clock jumped past a scheduled
             start - an executor bug, not a bad plan. *)
          let f = ops.(i) in
          internal_error ~component:"simulate"
            "armed fetch of b%d on disk %d overdue: start time %d < clock %d" f.Fetch_op.block
            f.Fetch_op.disk start_time !t
        end
      end
    in
    (* Queue the due armed ops, in start order. *)
    let rec move_due_armed () =
      if (not (Armed.is_empty armed)) && Armed.top_time armed <= !t then begin
        enqueue (op_at (Armed.top_rank armed));
        Armed.pop armed;
        move_due_armed ()
      end
    in
    (* Queue the due head of the time-sorted retry list. *)
    let rec move_due_retries () =
      match !retryq with
      | (time, i) :: rest when time <= !t ->
        retryq := rest;
        enqueue i;
        move_due_retries ()
      | _ -> ()
    in
    (* Starts at the current instant.  Callable again within the instant:
       parking advances the cursor, which can arm zero-delay ops due now. *)
    let start_phase () =
      if strict then start_due ()
      else begin
        move_due_retries ();
        move_due_armed ();
        if defer then begin
          (* One pass over the global FIFO: start what applies, keep the
             rest in order. *)
          let q = waiting.(0) in
          for _ = 1 to Queue.length q do
            let i = Queue.take q in
            if startable i then begin
              decr waiting_count;
              first_start i
            end
            else begin
              mark_deferred i;
              Queue.add i q
            end
          done
        end
        else begin
          for d = 0 to num_disks - 1 do
            let q = waiting.(d) in
            while
              (not (Queue.is_empty q))
              && flight_op.(d) < 0
              && not (Faults.disk_down faults ~disk:d ~time:!t)
            do
              decr waiting_count;
              drop_start (Queue.take q)
            done
          done;
          (* Anything still queued was deferred by a busy or down disk. *)
          if !waiting_count > 0 then Array.iter mark_queue waiting
        end
      end
    in
    let outage_transition (o : Faults.outage) =
      if o.Faults.from_time = !t then
        fevent (Faults.Outage_begin { time = !t; disk = o.Faults.disk });
      if o.Faults.until_time = !t then fevent (Faults.Outage_end { time = !t; disk = o.Faults.disk })
    in
    let vacate d i =
      flight_op.(d) <- -1;
      decr in_flight_count;
      block_in_flight.(ops.(i).Fetch_op.block) <- -1
    in
    (* Completions at the current instant.  A failed attempt frees the
       disk without delivering: retry under the plan's policy or abandon.
       A delivered block releases the requests parked on it. *)
    let complete () =
      for d = 0 to num_disks - 1 do
        let i = flight_op.(d) in
        if i >= 0 && flight_end.(d) = !t then begin
          let f = ops.(i) in
          vacate d i;
          if retrying && cur_fail.(i) then begin
            incr f_failures;
            fevent
              (Faults.Fail { time = !t; disk = d; block = f.Fetch_op.block; attempt = attempts.(i) });
            if attempts.(i) < faults.Faults.retry.Faults.max_attempts then
              retryq_add (!t + Faults.backoff_delay faults.Faults.retry ~attempt:attempts.(i)) i
            else begin
              incr f_abandoned;
              decr reserved;
              fevent
                (Faults.Give_up
                   { time = !t; disk = d; block = f.Fetch_op.block; attempts = attempts.(i) })
            end
          end
          else begin
            decr reserved;
            if not in_cache.(f.Fetch_op.block) then begin
              in_cache.(f.Fetch_op.block) <- true;
              incr cache_count
            end;
            incr completed;
            if record_events then record (Fetch_complete { time = !t; fetch = f });
            prov_complete ~disk:d f;
            if window > 0 then begin
              match waiters.(i) with
              | [] -> ()
              | ws ->
                if record_events then
                  List.iter
                    (fun req -> record (Serve { time = !t; index = req; block = f.Fetch_op.block }))
                    (List.rev ws);
                parked := !parked - List.length ws;
                waiters.(i) <- []
            end
          end
        end
      done
    in
    (* Outage interrupts: an in-flight attempt on a disk that just went
       down is aborted and re-queued for when the disk comes back; the
       interrupt does not consume an attempt. *)
    let interrupt () =
      for d = 0 to num_disks - 1 do
        let i = flight_op.(d) in
        if i >= 0 && Faults.disk_down faults ~disk:d ~time:!t then begin
          vacate d i;
          disk_busy.(d) <- disk_busy.(d) - (flight_end.(d) - !t);
          incr f_interrupts;
          fevent (Faults.Interrupted { time = !t; disk = d; block = ops.(i).Fetch_op.block });
          redraw.(i) <- true;
          retryq_add (Faults.next_up faults ~disk:d ~time:!t) i
        end
      done
    in
    (* Stall is legal while a fetch is in flight, armed, queued or in
       backoff.  With none, the missing block can never arrive: reject.
       Under the defer rule queued ops do not count: with nothing in
       flight, no park and no start happened this instant, so every
       queued op was found inapplicable in the state that persists - and
       with nothing in flight or armed, nothing will change it. *)
    let check_progress b =
      if !in_flight_count = 0 && Armed.is_empty armed && !retryq = [] && (defer || !waiting_count = 0)
      then
        if retrying then
          rejectf !t "request r%d (b%d) missing and unrecoverable under faults" (!cursor + 1) b
        else if !waiting_count > 0 then
          rejectf !t "request r%d (b%d) missing and unrecoverable (deferred fetches wedged)"
            (!cursor + 1) b
        else
          rejectf !t "request r%d (b%d) missing with no fetch in flight or scheduled" (!cursor + 1)
            b
    in
    (* A fetch held up by the plan: a repeat attempt, a deferred start, or
       a jittered attempt past its planned duration. *)
    let fault_delayed i =
      faulty
      && ((retrying && attempts.(i) > 1)
          || was_deferred.(i)
          || (cur_jitter.(i) && !t >= cur_start.(i) + fetch_time))
    in
    (* Stall charging.  [b] is the block the cursor waits on, or -1 for
       any block: the tail drain of parked requests, or the fallback when
       nothing supplies [b] (a doomed run that will reject), which keeps
       the partition total exact.  In flight -> involuntary; armed but
       delayed -> voluntary; queued or in backoff -> voluntary and fault
       stall.  For any block the in-flight pick is the earliest to
       complete. *)
    let supplies b i = b < 0 || ops.(i).Fetch_op.block = b in
    let rec first_of b = function
      | [] -> -1
      | (_, i) :: rest -> if supplies b i then i else first_of b rest
    in
    (* The first armed op in start order supplying [b], or -1: the least
       (start time, rank) among the heap's few entries. *)
    let first_armed b =
      let best = ref (-1) in
      for e = 0 to armed.Armed.len - 1 do
        if supplies b (op_at armed.Armed.rank.(e)) && (!best < 0 || Armed.before armed e !best)
        then best := e
      done;
      if !best < 0 then -1 else op_at armed.Armed.rank.(!best)
    in
    (* The first queued op supplying [b] (disk order, then queue order),
       else the first in backoff.  [visit] is built once per run, so the
       per-unit scan allocates nothing. *)
    let want = ref (-1) and found = ref (-1) in
    let visit i = if !found < 0 && supplies !want i then found := i in
    let first_queued b =
      want := b;
      found := -1;
      for q = 0 to Array.length waiting - 1 do
        Queue.iter visit waiting.(q)
      done;
      if !found >= 0 then !found else first_of b !retryq
    in
    let earliest_in_flight () =
      let best = ref (-1) in
      for d = 0 to num_disks - 1 do
        if flight_op.(d) >= 0 && (!best < 0 || flight_end.(d) < flight_end.(!best)) then best := d
      done;
      if !best < 0 then -1 else flight_op.(!best)
    in
    let charge b units =
      let i = if b >= 0 then block_in_flight.(b) else earliest_in_flight () in
      if i >= 0 then begin
        involuntary.(i) <- involuntary.(i) + units;
        if fault_delayed i then f_stall := !f_stall + units;
        true
      end
      else
        let i = first_armed b in
        if i >= 0 then begin
          voluntary.(i) <- voluntary.(i) + units;
          true
        end
        else
          let i = first_queued b in
          if i >= 0 then begin
            voluntary.(i) <- voluntary.(i) + units;
            f_stall := !f_stall + units
          end;
          i >= 0
    in
    let charge_stall b units =
      if not ((b >= 0 && charge b units) || charge (-1) units) then
        internal_error ~component:"simulate"
          "t=%d cursor %d: stall awaiting b%d with no fetch in flight, armed, queued or retrying" !t
          !cursor b
    in
    (* Where a stall run that begins now ends (see "Stall runs" above):
       in strict mode at the next completion or armed start, capped at
       horizon + 1 where the deadlock guard fires; one unit on in
       degraded mode.  No completion, start or serve happens before that
       instant, so neither the fetch the first unit is charged to nor the
       kind of charge can change. *)
    let stall_run_end () =
      if not strict then !t + 1
      else begin
        let e = ref (horizon + 1) in
        if (not (Armed.is_empty armed)) && Armed.top_time armed < !e then e := Armed.top_time armed;
        for d = 0 to num_disks - 1 do
          if flight_op.(d) >= 0 && flight_end.(d) < !e then e := flight_end.(d)
        done;
        !e
      end
    in
    let stall_run b =
      let until = stall_run_end () in
      let units = until - !t in
      if attribution then charge_stall b units;
      prov_stall ();
      if record_events then
        for time = !t to until - 1 do
          record (Stall { time })
        done;
      stall := !stall + units;
      t := until
    in
    (* Delayed hit: park the cursor request on the in-flight fetch of its
       block and move on within the same instant. *)
    let park b =
      let i = block_in_flight.(b) in
      let disk = ops.(i).Fetch_op.disk in
      if flight_op.(disk) <> i then
        internal_error ~component:"simulate"
          "t=%d cursor %d: b%d marked in flight by a fetch not on disk %d" !t !cursor b disk;
      let ready_at = flight_end.(disk) in
      waiters.(i) <- !cursor :: waiters.(i);
      let depth = List.length waiters.(i) in
      let residual = ready_at - !t in
      incr parked;
      incr delayed_hits;
      delayed_wait := !delayed_wait + residual;
      if depth > !max_depth then max_depth := depth;
      waits :=
        { req_index = !cursor; block = b; disk; parked_at = !t; ready_at; queue_depth = depth }
        :: !waits;
      prov_serve b;
      if Event_log.enabled () then
        Event_log.record
          (Event_log.Delayed_hit
             { time = !t; cursor = !cursor; block = b; disk; queue_depth = depth; residual });
      if Telemetry.enabled () then begin
        Telemetry.incr m_hits;
        Telemetry.add m_wait_units residual;
        Telemetry.observe_int m_residual_hist residual;
        Telemetry.observe_int m_depth_hist depth
      end;
      incr cursor;
      arm !t !cursor
    in
    (* Serve, park or stall during [t, t+1).  Parking takes no time and
       may enable further starts and serves within the instant; each
       round advances the cursor, so the recursion terminates. *)
    let rec serve_phase () =
      if !cursor >= n then stall_run (-1) (* tail drain: only parked requests remain *)
      else begin
        let b = seq.(!cursor) in
        if in_cache.(b) then begin
          prov_serve b;
          if record_events then record (Serve { time = !t; index = !cursor; block = b });
          incr cursor;
          incr t;
          arm !t !cursor
        end
        else if !parked < window && block_in_flight.(b) >= 0 then begin
          park b;
          start_phase ();
          note_occupancy ();
          serve_phase ()
        end
        else begin
          check_progress b;
          stall_run b
        end
      end
    in
    while !cursor < n || !parked > 0 do
      if !t > horizon then rejectf !t "simulation exceeded time horizon (deadlock)";
      if retrying then List.iter outage_transition faults.Faults.outages;
      complete ();
      if retrying then interrupt ();
      start_phase ();
      note_occupancy ();
      (* Completions at this instant may have released the last parked
         request; the run is then over and no unit elapses. *)
      if !cursor < n || !parked > 0 then serve_phase ()
    done;
    sample_occ !t;
    (* Refund busy time the in-flight fetches would spend past the end of
       the run (the clock stops when the last request is served). *)
    for d = 0 to num_disks - 1 do
      if flight_op.(d) >= 0 && flight_end.(d) > !t then
        disk_busy.(d) <- disk_busy.(d) - (flight_end.(d) - !t)
    done;
    (* Still-armed fetches after the last request are ignored for timing
       (they cannot add stall) but still counted as unstarted. *)
    let stall_by_fetch =
      if attribution then
        Array.to_list
          (Array.mapi
             (fun i f ->
                { fetch = f;
                  fetch_index = i;
                  involuntary_stall = involuntary.(i);
                  voluntary_stall = voluntary.(i) })
             ops)
      else []
    in
    let report =
      if not faulty then Faults.empty_report
      else
        { Faults.injected_jitter = !f_jitter;
          transient_failures = !f_failures;
          retries = !f_retries;
          abandoned = !f_abandoned;
          deferred_starts = !f_deferred;
          outage_interrupts = !f_interrupts;
          dropped_fetches = !f_dropped;
          skipped_evictions = !f_skipped_evict;
          fault_stall = !f_stall;
          replans = 0;
          events = List.rev !fevents }
    in
    Ok
      { base =
          { stall_time = !stall;
            elapsed_time = !t;
            fetches_started = !started;
            fetches_completed = !completed;
            peak_occupancy = !peak;
            events = List.rev !events;
            disk_busy;
            stall_by_fetch;
            occupancy = List.rev !occupancy };
        delayed_hits = !delayed_hits;
        delayed_wait = !delayed_wait;
        max_queue_depth = !max_depth;
        waits = List.rev !waits;
        report }
  with Reject e -> Error e

let run ?(extra_slots = 0) ?(record_events = false) ?(attribution = false) (inst : Instance.t)
    (schedule : Fetch_op.schedule) : (stats, error) Result.t =
  let r =
    Result.map
      (fun o -> o.base)
      (exec ~extra_slots ~record_events ~attribution ~faults:Faults.none inst schedule)
  in
  record_run_telemetry r;
  r

let run_faulty ?(extra_slots = 0) ?(record_events = false) ?(attribution = false)
    ~(faults : Faults.t) (inst : Instance.t) (schedule : Fetch_op.schedule) :
  (stats * Faults.report, error) Result.t =
  let r =
    Result.map
      (fun o -> (o.base, o.report))
      (exec ~extra_slots ~record_events ~attribution ~faults inst schedule)
  in
  record_run_telemetry (Result.map fst r);
  (match r with Ok (_, report) when not (Faults.is_none faults) -> record_fault_telemetry report | _ -> ());
  r

(* Typed channel for "this schedule was rejected" in exception position.
   Defined here (the lowest layer that can reject) so lib/core's Driver
   can rebind it rather than wrap-and-rethrow; [algorithm] names the
   producer of the offending schedule. *)

exception Invalid_schedule of { algorithm : string; at_time : int; reason : string }

let () =
  Printexc.register_printer (function
    | Invalid_schedule { algorithm; at_time; reason } ->
      Some
        (Printf.sprintf "%s produced an invalid schedule at t=%d: %s" algorithm at_time reason)
    | _ -> None)

let reject ~algorithm (e : error) =
  raise (Invalid_schedule { algorithm; at_time = e.at_time; reason = e.reason })

(* Convenience wrappers. *)

let stall_time ?extra_slots inst schedule =
  match run ?extra_slots inst schedule with
  | Ok s -> Ok s.stall_time
  | Error e -> Error e

let stall_time_exn ?(name = "replay") ?extra_slots inst schedule =
  match run ?extra_slots inst schedule with
  | Ok s -> s.stall_time
  | Error e -> reject ~algorithm:name e

let elapsed_time_exn ?(name = "replay") ?extra_slots inst schedule =
  match run ?extra_slots inst schedule with
  | Ok s -> s.elapsed_time
  | Error e -> reject ~algorithm:name e
