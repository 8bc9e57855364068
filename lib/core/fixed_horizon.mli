(** The Fixed Horizon prefetching strategy (Kimbrel et al., OSDI'96 -
    reference [15] of the paper): initiate each fetch exactly [F] requests
    before the missing block's reference ("just in time"), or as soon after
    as the disk allows.  A classic baseline between Aggressive (earliest)
    and Conservative/Delay (latest consistent). *)

val rule : Instance.t -> Driver.t -> unit
(** The decide callback {!schedule} runs on [inst]. *)

val schedule : Instance.t -> Fetch_op.schedule

val stats : Instance.t -> Simulate.stats
(** @raise Driver.Invalid_schedule if the executor rejects the schedule (a bug). *)

val stall_time : Instance.t -> int
val elapsed_time : Instance.t -> int
