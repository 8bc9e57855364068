(** The Aggressive algorithm (Cao, Felten, Karlin, Li), single disk.

    Whenever the disk is idle, Aggressive initiates a prefetch for the next
    missing block in the sequence, provided some cached block is not
    requested before the block to be fetched; it evicts the cached block
    whose next reference is furthest in the future.

    The paper's Theorem 1 proves an elapsed-time approximation ratio of at
    most [min (1 + F /. (k + ceil(k/F) - 1)) 2.] (improving Cao et al.'s
    [1 + F/k]), and Theorem 2 shows this is essentially tight via the
    explicit family in {!Workload.theorem2_lower_bound}. *)

val decide : Driver.t -> unit
(** One decision step.  It reads the trace only through {!Driver}'s
    window-safe queries, so it drives batch runs and the streaming
    ["aggressive"] policy alike. *)

val schedule : Instance.t -> Fetch_op.schedule
(** The schedule Aggressive produces on the given instance. *)

val stats : Instance.t -> Simulate.stats
(** Executor-validated statistics of {!schedule}.
    @raise Driver.Invalid_schedule if the executor rejects the schedule (a bug). *)

val elapsed_time : Instance.t -> int
val stall_time : Instance.t -> int
