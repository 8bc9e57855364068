(** Delayed-hit executor: requests to a block already in flight park on
    the outstanding fetch and pay only its remaining latency, instead of
    stalling the clock like a fresh miss.

    Semantics relative to {!Simulate}:
    - during [t, t+1) the cursor request is served inline if resident
      (one unit), parked if its block is in flight and fewer than
      [window] requests are currently parked (zero units now; completed
      at the fetch's completion instant), and a stall unit otherwise;
    - fetch durations are drawn from the plan's latency distribution
      (plus jitter) via {!Faults.draw}; [Faults.none] keeps the fixed
      [F];
    - [elapsed = (n - delayed_hits) + stall_time], and the classic
      involuntary/voluntary stall attribution partition is preserved.

    Progress guarantee: plans with failures or outages are refused
    ({!Faults.Invalid_plan}), so every started fetch completes within
    the plan's bounded latency and every parked request is released at
    that completion - no request waits more than one maximal fetch
    duration past its park instant, and the in-instant park loop is
    bounded by the cursor.

    One loop: [run] checks its arguments and runs {!Simulate.exec}
    with a parking window, so the timeline, stall attribution and
    provenance are the classic executor's own.

    Degenerate-plan contract (fuzzed by the [delayed] oracle class):
    with [window = 0] and degenerate timing ([Faults.none], or a
    [Const F] plan without jitter), [base] is structurally identical to
    [Simulate.run]'s stats for every schedule the classic executor
    accepts; with [window = 0] and [Faults.none] rejections are
    identical too.  Under any other plan the strict plan-consistency
    rejections relax into degraded mode: a start that cannot apply yet
    (busy disk, block resident or in flight, victim still absent) waits
    in one global FIFO in armed order until it can, counted as a
    deferral in [report]. *)

type wait = Simulate.wait = {
  req_index : int;  (** request that parked (0-based position in seq) *)
  block : Instance.block;
  disk : int;
  parked_at : int;
  ready_at : int;  (** completion instant of the supplying fetch *)
  queue_depth : int;  (** waiters on that fetch after this one joined *)
}

type stats = Simulate.outcome = {
  base : Simulate.stats;  (** classic stats; [events] includes parked
                              serves at their completion instants *)
  delayed_hits : int;  (** requests served by parking *)
  delayed_wait : int;  (** sum of residual waits over parked requests *)
  max_queue_depth : int;
  waits : wait list;  (** chronological *)
  report : Faults.report;  (** jitter / deferral / drop accounting under
                               a non-empty plan; {!Faults.empty_report}
                               otherwise *)
}

val run :
  ?extra_slots:int -> ?record_events:bool -> ?attribution:bool -> ?window:int ->
  ?faults:Faults.t -> Instance.t -> Fetch_op.schedule -> (stats, Simulate.error) Result.t
(** Defaults: [extra_slots = 0], [record_events = false],
    [attribution = false] (forced on under a non-empty plan or when
    telemetry is enabled, like {!Simulate.run}), [window = 0] (classic
    behaviour), [faults = Faults.none].
    @raise Faults.Invalid_plan on [window < 0] ([field = "window"]) and
    when the plan has failures or outages ([field = "faults"]). *)
