(** Shared timeline driver for the online-style scheduling algorithms.

    The driver owns the simulated clock, cursor, cache and per-disk
    in-flight state, and records each initiated fetch as a {!Fetch_op.t}
    anchored to the cursor with the correct delay.  Algorithms
    (Aggressive, Conservative, Delay(d), the parallel greedy variants, the
    online variants) only express a per-instant decision rule; the
    resulting schedule is replayed through {!Simulate.run}, keeping a
    single source of truth for timing semantics. *)

type t

(** {1 Engines}

    [Fast] (the default) answers every query in O(log k) amortized - a
    monotone next-missing frontier (global and per disk), a
    lazy-invalidation max-heap of eviction candidates ({!Evict_heap}),
    and an event-skipping clock - for O((n + fetches) log k) total per
    run.  [Reference] is the seed implementation (fresh scans per query,
    one instant per loop iteration), kept as the oracle the equivalence
    suite replays every scheduler against: both engines produce
    byte-identical schedules. *)

type engine = Fast | Reference

val with_engine : engine -> (unit -> 'a) -> 'a
(** [with_engine e f] runs [f] with drivers created inside it using
    engine [e] (restored on exit, including on exceptions). *)

val engine : t -> engine

val active_engine : unit -> engine
(** The engine new drivers are created with: whatever the innermost
    {!with_engine} installed, [Fast] outside any.  Schedulers with
    engine-gated hot paths (Conservative's heap MIN, Online's
    invisible-LRU victim heap, Delay's merged queries) branch on this, so
    [with_engine Reference] selects both the seed driver and the seed
    scheduler code, keeping the equivalence suite a whole-pipeline
    oracle. *)

val create : Instance.t -> t

val run : Instance.t -> decide:(t -> unit) -> t
(** [run inst ~decide] executes the timeline to completion, calling
    [decide] after fetch completions whenever the state may have changed;
    the callback may invoke {!start_fetch}.

    Decide contract (required by the fast engine's event skipping, and
    satisfied by every in-tree scheduler): the callback must do nothing
    when every disk is busy, and must depend on the driver only through
    the cursor, cache, and in-flight state - never on the raw clock - so
    repeating it against an identical state is a no-op.  The reference
    engine literally calls [decide] once per instant; the fast engine
    skips only invocations that contract proves are no-ops.
    @raise Simulate.Internal_error (component ["driver"]) if the
    algorithm deadlocks: the cursor's block is missing and no fetch is in
    flight. *)

(** {1 State queries (valid inside [decide])} *)

val finished : t -> bool
val time : t -> int
val cursor : t -> int

val next_ref : t -> Next_ref.t
val instance : t -> Instance.t

val in_cache : t -> int -> bool
val cache_count : t -> int
val cache_list : t -> int list

val has_free_slot : t -> bool
(** Whether a no-eviction fetch is legal: resident blocks plus in-flight
    reservations leave a slot free. *)

val cache_full : t -> bool
(** [not (has_free_slot t)]. *)

val disk_busy : t -> int -> bool
val any_disk_busy : t -> bool
val block_in_flight : t -> int -> bool

val next_missing : ?from:int -> t -> int option
(** First position at or after [from] (default: the cursor) whose block is
    neither cached nor in flight.  Fast engine: amortized O(1) via the
    monotone frontier when [from <=] the last answer (the only pattern
    schedulers use); evictions clamp the frontier back. *)

val next_missing_on_disk : t -> disk:int -> from:int -> int option
(** Per-disk variant with its own monotone frontier. *)

val furthest_cached : t -> from:int -> (int * int) option
(** The cached block whose next reference measured from [from] is furthest
    in the future (ties broken towards smaller ids), with that reference
    position ([Instance.length] meaning "never again").  Fast engine:
    O(log k) amortized from the eviction-candidate heap, plus an
    O(from - cursor) re-scoring pass when querying beyond the cursor
    (Delay's d' window). *)

(** {1 Actions} *)

val start_fetch : ?disk:int -> t -> block:int -> evict:int option -> unit
(** Initiate a fetch at the current instant.  Preconditions (checked by
    assertions): the disk is idle, the block is absent and not in flight,
    and the evicted block (if any) is resident. *)

(** {1 Results} *)

val schedule : t -> Fetch_op.schedule
val stall_time : t -> int

(** {1 Low-level stepping (used by tests)} *)

val tick_completions : t -> unit
val advance : t -> unit

(** {1 Schedule validation} *)

exception Invalid_schedule of { algorithm : string; at_time : int; reason : string }
(** An algorithm emitted a schedule the simulator rejects - an internal
    invariant violation.  A printer is registered, so an uncaught raise
    still renders as ["%s produced an invalid schedule at t=%d: %s"]. *)

val validate : name:string -> ?extra_slots:int -> Instance.t -> Fetch_op.schedule -> Simulate.stats
(** Replay [sched] through {!Simulate.run} and return its stats.
    @raise Invalid_schedule on rejection, tagged with [name]. *)
