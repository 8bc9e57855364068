(** Lazy-invalidation max-heap of eviction candidates.

    One live entry per block, keyed by the position of the block's next
    reference; [top] returns the entry with the largest key, ties broken
    towards the smallest block id - exactly the winner of the seed
    driver's ascending-id strict-[>] scan in [furthest_cached].

    [remove] and re-keying [add]s invalidate lazily (a per-block stamp
    bump); superseded entries are discarded when they surface at the top
    during [top], and an internal compaction keeps the heap at O(live)
    entries under re-key-heavy workloads.  All operations are O(log live)
    amortized. *)

type t

val create : num_blocks:int -> t

val widen : t -> num_blocks:int -> unit
(** Admit block ids below [num_blocks], keeping every entry and
    counter (a stream's ids grow as requests arrive). *)

val add : t -> block:int -> key:int -> unit
(** Insert [block] with [key], superseding any previous entry for
    [block] (re-keying is just another [add]).
    @raise Simulate.Internal_error (component ["evict_heap"]) if
    [key < 0]: [-1] is the internal "no live entry" sentinel, so negative
    keys would corrupt the liveness accounting (callers with signed
    scores must bias them, as Online's recency keys do). *)

val remove : t -> block:int -> unit
(** Drop [block]'s live entry, if any (lazy: the heap node dies later). *)

val top : t -> int
(** The block with the maximum key (ties: smallest block), or [-1] if no
    live entries remain; {!key_of} reads its key.  Allocates nothing. *)

val mem : t -> int -> bool
val key_of : t -> int -> int
(** The block's live key, or [-1] if it has no live entry. *)

val size : t -> int
(** Number of live entries. *)

val heap_load : t -> int
(** Physical heap length including not-yet-collected stale entries
    (exposed for the lazy-invalidation unit tests). *)

(** {1 Lifetime stats}

    Unconditionally maintained (a plain int increment each); the driver
    flushes them into telemetry counters once per run. *)

val pushes : t -> int
(** Heap pushes, counting both fresh inserts and re-keying [add]s. *)

val stale_pops : t -> int
(** Superseded entries discarded when they surfaced during [top]. *)

val compactions : t -> int
(** In-place compactions triggered by the stale-entry bound. *)
