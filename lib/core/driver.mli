(** The timeline engine: one instant loop for every scheduler.

    Each instant the engine completes due fetches, calls the decision
    rule, then serves the cursor's request or stalls.  It owns the
    simulated clock, cursor, cache and per-disk in-flight state, and
    records each initiated fetch as a {!Fetch_op.t} anchored to the
    cursor with the correct delay.  Algorithms (Aggressive,
    Conservative, Delay(d), the parallel greedy variants, the online
    variants, the streaming policies) only express a per-instant
    decision rule; batch schedules are replayed through {!Simulate.run},
    keeping a single source of truth for timing semantics.

    The entry point chooses the next-reference index: {!run} indexes the
    whole trace ({!Next_ref}); {!run_stream} (behind {!Stream.run})
    keeps a sliding lookahead window ({!Win_ref}) fed from a pull
    source and adds the stream-only parts: observer hooks, a demand
    fetch and the window refill. *)

type t

(** {1 Design}

    Every query is O(log k) amortized, for O((n + fetches) log k) per
    run: a monotone next-missing frontier (global and per disk) that
    evictions clamp back, a lazy-invalidation max-heap of eviction
    candidates ({!Evict_heap}) keyed by next reference, and an
    event-skipping clock that elides the decide calls the contract below
    proves are no-ops.  Queries [~from] outside the frontier or below the
    cursor answer with a plain scan.  The checking oracle ([Ck_seed] in
    lib/check) drives {!create} through the stepping functions one
    instant at a time and compares every answer with a fresh scan. *)

val create : Instance.t -> t
(** A batch engine over the whole instance, before its first instant. *)

val run : Instance.t -> decide:(t -> unit) -> t
(** [run inst ~decide] executes the timeline to completion, calling
    [decide] after fetch completions whenever the state may have changed;
    the callback may invoke {!start_fetch}.

    Decide contract (required by event skipping, and satisfied by every
    in-tree rule, streaming policies included): the callback must do
    nothing when every disk is busy, and must depend on the engine only
    through the cursor, cache, and in-flight state - never on the raw
    clock - so repeating it against an identical state is a no-op.  The run skips only invocations that contract proves are
    no-ops; a loop over the stepping functions calls [decide] once per
    instant and must start the same fetches.
    @raise Simulate.Internal_error (component ["driver"]) if the
    algorithm deadlocks: the cursor's block is missing and no fetch is in
    flight. *)

type hooks = {
  on_find : t -> block:int -> hit:bool -> unit;
      (** once per request, the first instant the cursor reaches it,
          before the rule decides; [hit] is residency at that moment *)
  on_insert : t -> block:int -> unit;  (** a fetched block became resident *)
  on_evict : t -> block:int -> unit;  (** a resident block was dropped *)
}

val run_stream :
  k:int ->
  fetch_time:int ->
  window:int ->
  record_schedule:bool ->
  initial_cache:int list ->
  hooks:hooks ->
  decide:(t -> unit) ->
  (unit -> int option) ->
  t
(** [run_stream ... pull] runs one disk over the requests [pull] yields
    until it returns [None], seeing at most [window] requests past the
    cursor.  Each instant: completions (firing [on_insert]), [on_find]
    for a newly reached request, [decide], then a demand fetch if the
    cursor's block is still missing and the disk idle (evicting
    {!furthest_cached}), then serve or stall, then refill the window.
    {!Stream.run} is the user-facing entry point.
    @raise Instance.Invalid if [k], [fetch_time] or [window] is below 1,
    the initial cache is invalid, or [pull] yields a negative id.
    @raise Simulate.Internal_error (component ["stream"]) on an illegal
    fetch or a deadlock. *)

(** {1 State queries (valid inside [decide])}

    Everything here is window-safe: in a streaming run no query reveals
    a request at or beyond {!lookahead_end}. *)

val finished : t -> bool
val time : t -> int
val cursor : t -> int

val lookahead_end : t -> int
(** One past the last known request position: the trace length in a
    batch run, the window edge in a stream. *)

val request_at : t -> int -> int
(** Block requested at a known position.  In a stream only
    [[cursor, lookahead_end)) is known.
    @raise Simulate.Internal_error (component [stream]) outside that
    window in a stream; [Invalid_argument] outside the trace in a batch
    run. *)

val next_ref : t -> block:int -> from:int -> int
(** First known position [>= from] requesting [block].  A block not
    requested again scores at or above {!lookahead_end}: the trace
    length in a batch run, {!Win_ref.horizon} in a stream. *)

val prev_ref : t -> block:int -> before:int -> int
(** Last known position [< before] requesting [block], or [-1].  A
    stream has forgotten the positions below the cursor. *)

val max_block_seen : t -> int
(** Largest block id known so far: the instance's last block in a batch
    run, the largest id pulled in a stream ([-1] before the first). *)

val instance : t -> Instance.t
(** The whole instance.  Batch runs only.
    @raise Simulate.Internal_error in a streaming run. *)

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

(** The frontier and heap queries answer with a sentinel rather than an
    option, so a rule's per-instant questions allocate nothing. *)

val next_missing : ?from:int -> t -> int
(** First known position at or after [from] (default: the cursor) whose
    block is neither cached nor in flight, or [-1] if there is none.
    Amortized O(1) via the monotone frontier when [from <=] the last
    answer (the only pattern schedulers use); evictions clamp the
    frontier back. *)

val next_missing_on_disk : t -> disk:int -> from:int -> int
(** Per-disk variant with its own monotone frontier; [-1] for none. *)

val furthest_cached : t -> from:int -> int
(** The cached block whose next reference measured from [from] is furthest
    in the future (ties broken towards smaller ids), or [-1] if the cache
    is empty.  [next_ref ~block ~from] reads that reference position (see
    {!next_ref} for blocks not requested again).  O(log k) amortized from
    the eviction-candidate heap, plus an O(from - cursor) re-scoring pass
    when querying beyond the cursor (Delay's d' window). *)

(** {1 Actions} *)

val start_fetch : ?disk:int -> t -> block:int -> evict:int option -> unit
(** Initiate a fetch at the current instant.
    @raise Simulate.Internal_error (component ["driver"], or ["stream"]
    in a streaming run) if the disk is busy, the block is resident or
    already in flight, the evicted block is not resident, or no victim
    is given while [k] blocks are resident. *)

(** {1 Results} *)

val schedule : t -> Fetch_op.schedule
(** The fetches started so far, in order (empty for a stream that does
    not record its schedule). *)

val stall_time : t -> int
val fetches : t -> int

val demand_fetches : t -> int
(** Fetches started by the stream's demand path (0 in a batch run). *)

val refills : t -> int
(** Window refill batches pulled from the stream's source (0 in a batch
    run). *)

(** {1 Stepping}

    One instant of {!run} without event skipping is [tick_completions],
    the decide callback, then [advance], repeated until {!finished}.  The
    checking oracle steps a {!create}d engine this way. *)

val tick_completions : t -> unit
(** Complete the fetches due at the current instant.  Call once per
    instant, before deciding. *)

val advance : t -> unit
(** Serve the cursor's request if its block is resident, otherwise stall
    one unit; the clock moves on either way.
    @raise Simulate.Internal_error on a stall with nothing in flight. *)

(** {1 Schedule validation} *)

exception Invalid_schedule of { algorithm : string; at_time : int; reason : string }
(** An algorithm emitted a schedule the simulator rejects - an internal
    invariant violation.  A printer is registered, so an uncaught raise
    still renders as ["%s produced an invalid schedule at t=%d: %s"]. *)

val validate : name:string -> ?extra_slots:int -> Instance.t -> Fetch_op.schedule -> Simulate.stats
(** Replay [sched] through {!Simulate.run} and return its stats.
    @raise Invalid_schedule on rejection, tagged with [name]. *)
