(** Measurement harness: algorithms against exact optima, aggregated over
    workloads and parameters. *)

type algorithm = {
  name : string;
  schedule : Instance.t -> Fetch_op.schedule;
}

val single_disk_algorithms : algorithm list
(** aggressive, conservative, combination (in that order). *)

val all_single_disk_algorithms : algorithm list
(** {!single_disk_algorithms} plus the Fixed-Horizon baseline. *)

val delay_algorithm : int -> algorithm

val run_stats : Instance.t -> algorithm -> Simulate.stats
(** Schedule the instance with the algorithm and replay it once through the
    simulator.  Callers that need several derived measures (stall time,
    elapsed time, utilization...) should call this once rather than
    {!elapsed} and {!stall} separately, which each pay a full run.
    @raise Driver.Invalid_schedule if the algorithm emits an invalid schedule. *)

val run_protected : Instance.t -> algorithm -> (Simulate.stats, string) result
(** {!run_stats} with the typed failure channels
    ({!Simulate.Invalid_schedule}, {!Simulate.Internal_error}) caught and
    rendered, for sweeps that should report a bad cell rather than die. *)

val elapsed : Instance.t -> algorithm -> int
(** @raise Driver.Invalid_schedule if the algorithm emits an invalid schedule. *)

val stall : Instance.t -> algorithm -> int
(** @raise Driver.Invalid_schedule if the algorithm emits an invalid schedule. *)

type ratio_stats = {
  max_ratio : float;
  mean_ratio : float;
  samples : int;
  summary : Stats.summary;
}

val elapsed_ratios : algorithm -> Instance.t list -> ratio_stats
(** Elapsed-time ratios against the exact single-disk optimum. *)

val instance_pool :
  ?seeds:int list -> ?n:int -> ?num_blocks:int -> k:int -> fetch_time:int -> unit ->
  Instance.t list
(** Every {!Workload.families} member at each seed (defaults: seeds 1-3,
    n = 120, 12 blocks). *)
