(** The Conservative algorithm (Cao, Felten, Karlin, Li), single disk.

    Conservative performs exactly the same block replacements as the
    optimal offline paging algorithm MIN (Belady), initiating each fetch
    at the earliest point in time consistent with its eviction: the
    evicted block must not be requested between the eviction and the
    fetched block's miss position.  Its elapsed time is at most twice
    optimal (tight), and it performs the minimum possible number of
    fetches. *)

type pending = {
  fetched : int;
  evicted : int option;
  miss_position : int;  (** 0-based index of the MIN miss *)
  eligible_cursor : int;  (** the fetch may start once this many requests are served *)
}

val plan : Instance.t -> pending list
(** MIN's replacement sequence annotated with earliest start positions, in
    miss order.  Also used by Conservative-D ({!Parallel_greedy}). *)

val rule : Instance.t -> Driver.t -> unit
(** [rule inst] is a fresh decide callback that pops {!plan}'s queue (the
    queue is per-run state). *)

val schedule : Instance.t -> Fetch_op.schedule

val stats : Instance.t -> Simulate.stats
(** @raise Driver.Invalid_schedule if the executor rejects the schedule (a bug). *)

val elapsed_time : Instance.t -> int
val stall_time : Instance.t -> int

val num_fetches : Instance.t -> int
(** Number of fetches = MIN's miss count (minimal over all schedules). *)
