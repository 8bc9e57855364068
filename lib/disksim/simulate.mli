(** Reference executor/validator for prefetching/caching schedules - the
    ground truth of the reproduction.

    Every algorithm's output and every LP rounding is fed through {!run},
    which either rejects the schedule with a reason or reports its exact
    stall time, elapsed time and peak cache occupancy under the timing
    model of Section 1 of the paper:

    - at instant [t], fetches completing at [t] deposit their block, then
      fetches whose start time is [t] begin (performing their eviction);
    - during [t, t+1) the next request is served if its block is resident,
      otherwise the unit is processor stall time;
    - stall benefits all in-flight fetches simultaneously (the
      parallel-disk behaviour of the paper's two-disk example). *)

type event =
  | Serve of { time : int; index : int; block : Instance.block }
  | Stall of { time : int }
  | Fetch_start of { time : int; fetch : Fetch_op.t }
  | Fetch_complete of { time : int; fetch : Fetch_op.t }

type fetch_stall = {
  fetch : Fetch_op.t;
  fetch_index : int;  (** position in the submitted schedule *)
  involuntary_stall : int;
      (** units stalled waiting on this fetch while it was in flight *)
  voluntary_stall : int;
      (** units stalled waiting on this fetch while it was armed but its
          start deliberately delayed *)
}

type stats = {
  stall_time : int;
  elapsed_time : int;  (** always [length + stall_time] *)
  fetches_started : int;
  fetches_completed : int;
  peak_occupancy : int;  (** max over time of resident blocks + in-flight fetches *)
  events : event list;  (** chronological; empty unless [record_events] *)
  disk_busy : int array;  (** per-disk busy time units; always computed *)
  stall_by_fetch : fetch_stall list;
      (** schedule order; empty unless [attribution].  For every accepted
          schedule the charges partition the stall exactly:
          sum (involuntary + voluntary) = [stall_time]. *)
  occupancy : (int * int) list;
      (** [(time, resident + in-flight)] samples at change points; empty
          unless [attribution] *)
}

type error = { reason : string; at_time : int }

val pp_event : Format.formatter -> event -> unit
val pp_stats : Format.formatter -> stats -> unit
val pp_fetch_stall : Format.formatter -> fetch_stall -> unit

val run :
  ?extra_slots:int -> ?record_events:bool -> ?attribution:bool -> Instance.t ->
  Fetch_op.schedule -> (stats, error) Result.t
(** [extra_slots] extends capacity beyond [k] (the paper's parallel
    algorithm may use [2(D-1)] extra locations); [record_events] keeps the
    full trace; [attribution] (forced on while {!Telemetry.enabled})
    charges each stall unit to the fetch supplying the block the processor
    is waiting on - involuntary if that fetch is in flight, voluntary if
    it is armed but deliberately delayed - and samples the occupancy
    timeline.  Rejections include: fetches on busy disks, fetching
    resident or in-flight blocks, evicting absent blocks, capacity
    violations, wrong home disks, and deadlocks (a missing block that no
    in-flight or scheduled fetch can supply). *)

val run_faulty :
  ?extra_slots:int -> ?record_events:bool -> ?attribution:bool -> faults:Faults.t ->
  Instance.t -> Fetch_op.schedule -> (stats * Faults.report, error) Result.t
(** Execute the schedule under a {!Faults} plan.  With [Faults.none] the
    executed code path is the fault-free one and the returned stats are
    identical to {!run}'s (the report is {!Faults.empty_report}).  Under a
    non-empty plan, fetch attempts may be slowed, fail transiently
    (retried with the plan's backoff, bounded attempts) or be interrupted
    by whole-disk outages; plan-consistency violations caused by the
    faults are absorbed in degraded mode instead of rejecting - a start
    finding its disk busy or down waits in its disk's FIFO, and a start
    that no longer applies (block already resident or in flight, eviction
    victim gone with no free slot) is dropped and counted in the report.
    Attribution is forced on; stall units whose supplying fetch is
    retrying, deferred, or running a jittered/repeat attempt are
    additionally counted as [fault_stall].  Still rejects statically
    malformed schedules, and deadlocks when an abandoned fetch leaves a
    requested block unreachable (the {!Resilient} executor in lib/core
    re-plans instead). *)

(** {1 The shared loop}

    {!run}, {!run_faulty} and {!Delayed.run} are entry points over one
    timeline loop, {!exec}.  The types below are its full result; the
    delayed-hit entry point re-exports them as [Delayed.wait] and
    [Delayed.stats]. *)

type wait = {
  req_index : int;  (** request that parked (0-based position in seq) *)
  block : Instance.block;
  disk : int;
  parked_at : int;
  ready_at : int;  (** completion instant of the supplying fetch *)
  queue_depth : int;  (** waiters on that fetch after this one joined *)
}

type outcome = {
  base : stats;
  delayed_hits : int;  (** requests served by parking; 0 without a window *)
  delayed_wait : int;  (** sum of residual waits over parked requests *)
  max_queue_depth : int;
  waits : wait list;  (** chronological *)
  report : Faults.report;  (** {!Faults.empty_report} under [Faults.none] *)
}

val exec :
  ?window:int -> extra_slots:int -> record_events:bool -> attribution:bool -> faults:Faults.t ->
  Instance.t -> Fetch_op.schedule -> (outcome, error) Result.t
(** The executor loop.  [window] is passed by {!Delayed.run} only: it
    bounds the requests parked on in-flight fetches, and it selects the
    start rule of degraded mode - one global FIFO in armed order that
    defers a start until it applies - where {!run_faulty}'s rule keeps
    one FIFO per disk and drops a start that no longer applies.  Records
    no telemetry of its own beyond the per-park delayed-hit counters;
    the entry points do. *)

exception Invalid_schedule of { algorithm : string; at_time : int; reason : string }
(** A schedule the simulator rejects, in exception position.  [algorithm]
    names the producer ({!Driver.validate} tags it with the algorithm
    name; the [_exn] wrappers below default to ["replay"]).  A printer is
    registered, so an uncaught raise still renders as
    ["%s produced an invalid schedule at t=%d: %s"]. *)

val reject : algorithm:string -> error -> 'a
(** [reject ~algorithm e] raises {!Invalid_schedule} carrying [e]'s
    position and reason. *)

exception Internal_error of { component : string; reason : string }
(** A solver or executor reached a state its own model rules out - e.g.
    the synchronized LP reporting "unbounded", or {!Resilient} blowing
    its time horizon under a pathological fault plan.  Not a bad
    schedule ({!Invalid_schedule}) and not a user error.  A printer is
    registered, so an uncaught raise renders as
    ["%s: internal error: %s"]. *)

val internal_error : component:string -> ('a, unit, string, 'b) format4 -> 'a
(** [internal_error ~component fmt ...] raises {!Internal_error} with the
    formatted reason. *)

val stall_time : ?extra_slots:int -> Instance.t -> Fetch_op.schedule -> (int, error) Result.t

val stall_time_exn : ?name:string -> ?extra_slots:int -> Instance.t -> Fetch_op.schedule -> int
(** @raise Invalid_schedule on invalid schedules, tagged with [name]
    (default ["replay"]). *)

val elapsed_time_exn : ?name:string -> ?extra_slots:int -> Instance.t -> Fetch_op.schedule -> int
(** @raise Invalid_schedule on invalid schedules, tagged with [name]
    (default ["replay"]). *)
