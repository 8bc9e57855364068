(** The Delay(d) family (Section 2 of the paper).

    [Delay 0] is exactly Aggressive and [Delay n] is exactly Conservative,
    so the family bridges the two classical strategies.  When the disk is
    idle with next request [r_i] and next missing reference [r_j], Delay(d)
    serves without fetching if every cached block is requested before
    [r_j]; otherwise it picks the eviction victim as the cached block whose
    next request is furthest in the future measured [d' = min d (j - i)]
    requests ahead, and initiates the fetch at the earliest time after
    which the victim is no longer requested before [r_j].

    Theorem 3: the elapsed-time ratio is at most
    [max ((d+F)/F) (max ((d+2F)/(d+F)) (3(d+F)/(d+2F)))]; with
    [d0 = ceil ((sqrt 3 - 1) * F / 2)] the bound tends to [sqrt 3 ~ 1.732]
    (Corollary 1).  See {!Bounds.delay_bound} and {!Bounds.delay_opt_d}. *)

val rule : d:int -> unit -> Driver.t -> unit
(** [rule ~d ()] is a fresh Delay(d) decide callback (the fetch it has
    committed to is per-run state).  It reads the trace only through
    {!Driver}'s window-safe queries, so it drives batch runs and the
    streaming ["delay"] policy alike.
    @raise Invalid_argument if [d < 0]. *)

val schedule : d:int -> Instance.t -> Fetch_op.schedule
(** @raise Invalid_argument if [d < 0]. *)

val stats : d:int -> Instance.t -> Simulate.stats
(** @raise Driver.Invalid_schedule if the executor rejects the schedule (a bug). *)

val elapsed_time : d:int -> Instance.t -> int
val stall_time : d:int -> Instance.t -> int
