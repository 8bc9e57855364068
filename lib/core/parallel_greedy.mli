(** Greedy baselines for D parallel disks (Kimbrel-Karlin).

    Aggressive-D starts, on every idle disk, a prefetch for the next
    missing block residing there (furthest-next-reference eviction);
    Kimbrel & Karlin showed its elapsed-time ratio degrades to about [D].
    Conservative-D replays MIN's replacements, dispatching each fetch to
    its block's home disk at the earliest consistent time. *)

val aggressive_decide : Driver.t -> unit
val aggressive_schedule : Instance.t -> Fetch_op.schedule

val aggressive_stats : Instance.t -> Simulate.stats
(** @raise Driver.Invalid_schedule if the executor rejects the schedule (a bug). *)

val aggressive_stall : Instance.t -> int

val conservative_rule : Instance.t -> Driver.t -> unit
(** [conservative_rule inst] is a fresh Conservative-D decide callback
    (the pending MIN replacements are per-run state). *)

val conservative_schedule : Instance.t -> Fetch_op.schedule

val conservative_stats : Instance.t -> Simulate.stats
(** @raise Driver.Invalid_schedule if the executor rejects the schedule (a bug). *)

val conservative_stall : Instance.t -> int
