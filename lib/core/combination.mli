(** The Combination algorithm (Corollary 2 of the paper).

    Runs Delay(d0) when its Theorem-3 bound [c0] beats Aggressive's
    Theorem-1 bound, and Aggressive otherwise, achieving ratio
    [min (1 + F/(k + ceil(k/F) - 1)) c0] - asymptotically
    [min (1 + F/(k + ceil(k/F) - 1)) (sqrt 3)], strictly better than both
    Aggressive and Conservative in general. *)

type choice = Use_aggressive | Use_delay of int

val choose : k:int -> f:int -> choice
(** The strategy Combination selects for cache size [k] and fetch time [f]. *)

val rule : Instance.t -> Driver.t -> unit
(** [rule inst] is a fresh decide callback for the strategy {!choose}
    selects on [inst]. *)

val schedule : Instance.t -> Fetch_op.schedule

val stats : Instance.t -> Simulate.stats
(** @raise Driver.Invalid_schedule if the executor rejects the schedule (a bug). *)

val elapsed_time : Instance.t -> int
val stall_time : Instance.t -> int
