(* Delayed-hit executor.

   The classic executor ({!Simulate}) treats a request to a block that is
   already being fetched like any other miss: the processor stalls until
   the fetch completes.  Real storage stacks instead register the request
   on the outstanding fetch - a *delayed hit* (Manohar et al.; Jiang & Ma
   2025) - and the request pays only the fetch's remaining latency while
   the processor moves on.

   This module is an entry point, not a second executor: it checks its
   arguments and runs {!Simulate.exec} with a parking window, so the
   timeline, arming, stall attribution and provenance are the classic
   executor's own.  Semantics:

   - during [t, t+1) the request at the cursor is served if its block is
     resident (consuming the unit), parked on the fetch's wait queue if
     the block is in flight and fewer than [window] requests are parked
     (the cursor advances within the same instant and the request
     completes when the fetch lands), and a stall unit otherwise;
     window = 0 recovers the classic executor exactly;
   - fetch durations come from the plan's latency distribution (plus
     jitter) via {!Faults.draw}; under [Faults.none] every duration is
     the instance's fixed [F];
   - [elapsed = (n - delayed_hits) + stall_time], and the classic
     involuntary/voluntary attribution partition is preserved.

   Progress guarantee: plans with failures or outages are refused, so
   every started fetch completes within the plan's bounded latency and
   every parked request is released at that completion.  Under any plan
   other than window 0 with [Faults.none], starts follow the loop's
   defer rule: a start that cannot apply yet waits in one global FIFO in
   armed order until it can, counted as a deferral in the report. *)

type wait = Simulate.wait = {
  req_index : int;  (* request that parked (0-based position in seq) *)
  block : Instance.block;
  disk : int;
  parked_at : int;
  ready_at : int;  (* completion instant of the supplying fetch *)
  queue_depth : int;  (* waiters on that fetch after this one joined *)
}

type stats = Simulate.outcome = {
  base : Simulate.stats;
  delayed_hits : int;  (* requests served by parking on an in-flight fetch *)
  delayed_wait : int;  (* sum of residual waits over parked requests *)
  max_queue_depth : int;
  waits : wait list;  (* chronological *)
  report : Faults.report;
}

let m_runs = Telemetry.counter "delayed.runs"
let m_rejected = Telemetry.counter "delayed.rejected"

let run ?(extra_slots = 0) ?(record_events = false) ?(attribution = false) ?(window = 0)
    ?(faults = Faults.none) (inst : Instance.t) (schedule : Fetch_op.schedule) :
  (stats, Simulate.error) Result.t =
  if window < 0 then
    raise (Faults.Invalid_plan { field = "window"; reason = Printf.sprintf "must be >= 0 (got %d)" window });
  if faults.Faults.fail_prob > 0.0 || faults.Faults.outages <> [] then
    raise
      (Faults.Invalid_plan
         { field = "faults";
           reason = "delayed-hit executor takes latency/jitter plans only (no failures, no outages)" });
  let result = Simulate.exec ~window ~extra_slots ~record_events ~attribution ~faults inst schedule in
  if Telemetry.enabled () then
    Telemetry.incr (match result with Ok _ -> m_runs | Error _ -> m_rejected);
  result
