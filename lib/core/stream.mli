(** Streaming runs: online prefetching with bounded lookahead.

    A batch run ({!Driver.run}) is omniscient - it indexes a whole
    {!Instance.t} with {!Next_ref} precomputed over the full sequence.
    A streaming run models the paper's online setting instead: requests
    arrive one at a time from a pull-based {!source} (possibly endless),
    and the rule sees only a sliding lookahead window of [window]
    requests past the cursor.  Next-reference knowledge is truncated at
    the window edge: a block not referenced within the window scores
    {!Win_ref.horizon}, exactly as the batch run's one-past-the-end
    sentinel scores a block never referenced again.

    Both kinds of run share {!Driver}'s instant loop; {!run} selects the
    windowed index together with the stream-only parts (observer hooks,
    demand fetch, window refill).  Policies attach through
    libCacheSim-style hooks (a {!policy} record: [prefetch] / [on_find]
    / [on_insert] / [on_evict]); the built-in policies - Aggressive and
    Delay(d) as the very rules the batch schedulers run, and the
    history-based competitors - live in {!Prefetcher}.

    At [window = n] (full trace in view) Aggressive and Delay(d) produce
    schedules byte-identical to the batch runs - pinned by the [Stream]
    oracle class in lib/check across the fuzz corpus.  Memory stays
    O(window + cache + largest block id) regardless of trace length: no
    full-trace arrays are ever materialized. *)

(** {1 Sources} *)

type source = { name : string; pull : unit -> int option }
(** A pull-based request source.  [pull] returns the next block id, or
    [None] once the trace is exhausted (it is not called again after
    returning [None]). *)

val source : name:string -> (unit -> int option) -> source

val of_array : ?name:string -> int array -> source
val of_list : ?name:string -> int list -> source

val of_reader : ?name:string -> Trace_io.reader -> source
(** Stream requests straight from an open trace file, line by line —
    constant memory even for traces that do not fit in RAM. *)

val take : int -> source -> source
(** [take n src] truncates [src] to its first [n] requests. *)

(** Endless synthetic twins of the {!Workload} generators.  Each
    consumes one [Random.State] in request order with the same sampling
    discipline as its batch counterpart, so [take n] of a twin yields
    exactly the batch generator's length-[n] sequence (a tested
    invariant).  Each raises {!Instance.Invalid} if [num_blocks < 1]
    ([phase_shift] also if [phase_len < 1] or [working_set] lies outside
    [[1, num_blocks]]). *)

val uniform : seed:int -> num_blocks:int -> source
val zipf : seed:int -> alpha:float -> num_blocks:int -> source
val sequential_scan : num_blocks:int -> source
val phase_shift :
  seed:int -> num_blocks:int -> phase_len:int -> working_set:int -> source

(** {1 Policies} *)

type policy = {
  policy_name : string;
  prefetch : Driver.t -> unit;
      (** The decide callback, called once per instant before the
          engine's demand fetch; it reads the engine through {!Driver}'s
          window-safe queries.  The disk may be busy; use
          {!Driver.disk_busy}.  May call {!Driver.start_fetch} at most
          once (the single disk).  It must keep {!Driver.run}'s decide
          contract: do nothing while the disk is busy, and never read
          the raw clock - the engine skips instants the contract proves
          are no-ops. *)
  on_find : Driver.t -> block:int -> hit:bool -> unit;
      (** Called exactly once per request, the first instant the cursor
          reaches it - before [prefetch] that instant.  [hit] is
          residency at that first attempt (an in-flight block counts as
          a miss). *)
  on_insert : Driver.t -> block:int -> unit;
      (** A fetched block just became resident. *)
  on_evict : Driver.t -> block:int -> unit;
      (** A resident block was just dropped. *)
}

val passive_policy : string -> policy
(** All hooks no-ops: pure demand paging (the engine's built-in demand
    fetch does the work).  Use with record update [{ (passive_policy
    name) with prefetch = ... }] for partial overrides. *)

(** {1 Running} *)

type outcome = {
  policy : string;
  window_used : int;
  stall_time : int;  (** instants the cursor waited on a missing block *)
  elapsed_time : int;  (** total instants: served requests + stalls *)
  served : int;
  fetches : int;
  demand_fetches : int;  (** subset of [fetches] issued by the engine's demand path *)
  refills : int;  (** window refill batches pulled from the source *)
  schedule : Fetch_op.t list option;  (** when [record_schedule] was set *)
}

val run :
  ?record_schedule:bool ->
  ?initial_cache:int list ->
  k:int ->
  fetch_time:int ->
  window:int ->
  source ->
  policy ->
  outcome
(** Drive the source to exhaustion under the policy, on
    {!Driver.run_stream}.  Each instant runs [completions; on_find;
    prefetch; demand fetch; serve or stall; refill], and instants the
    decide contract proves are no-ops are skipped as in batch runs.  The
    built-in demand fetch covers a cursor miss the policy left open
    (only when the disk is idle), so purely speculative policies cannot
    deadlock; for Aggressive and Delay(d) it never fires.
    [record_schedule] (default [false]) accumulates the {!Fetch_op.t}
    list — leave it off for endless or huge traces, the engine is
    otherwise constant-memory.  [initial_cache] pre-populates residency
    (default cold).

    @raise Instance.Invalid if [k < 1], [fetch_time < 1], [window < 1],
    the initial cache is invalid, or the source yields a negative id. *)
