(** Classic (pure) paging algorithms in the demand model: unit-cost misses,
    no overlap, only the eviction decision matters.

    The integrated algorithm Conservative is defined as "perform exactly
    the same replacements as Belady's MIN, fetching at the earliest
    consistent time", so MIN's replacement sequence is a first-class object
    here; LRU and FIFO serve as context baselines and test oracles (MIN
    must never miss more than either). *)

type replacement = {
  position : int;  (** 0-based index of the missed request *)
  fetched : Instance.block;
  evicted : Instance.block option;  (** [None] while the cache is not full *)
}

type result = {
  replacements : replacement list;  (** in request order *)
  misses : int;
  final_cache : Instance.block list;  (** sorted *)
}

val min_offline : Instance.t -> result
(** Belady's MIN: evict the cached block whose next reference is furthest
    in the future (never-again blocks first, ties towards smaller ids),
    in O((n + misses) log k) through the lazy-invalidation eviction heap
    ({!Evict_heap}).  Conservative plans through this; the per-miss scan
    {!Ck_seed.min_scan} is its equivalence oracle. *)

val lru : Instance.t -> result
val fifo : Instance.t -> result

val clock : Instance.t -> result
(** CLOCK / second-chance: the classic practical LRU approximation. *)

val marking : ?seed:int -> Instance.t -> result
(** The randomized MARKING algorithm (O(log k)-competitive); deterministic
    given [seed]. *)

val pp_replacement : Format.formatter -> replacement -> unit
