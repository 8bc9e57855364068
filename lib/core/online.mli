(** Limited-lookahead online prefetching - the open problem of Section 4.

    Aggressive/Delay(d) restricted to seeing only the next [lookahead]
    requests: the next missing block is searched within the window, and
    blocks invisible in the window are treated as never requested again
    (preferred eviction victims, least-recently-used first), so with
    [lookahead = 1] the policy degrades to LRU-style demand behaviour and
    with [lookahead = n] it coincides with the offline algorithm (up to
    tie-breaking among dead blocks, which cannot change stall time). *)

type config = {
  lookahead : int;  (** number of future requests visible, >= 1 *)
  delay : int;  (** Delay(d) parameter; 0 = aggressive *)
}

val aggressive : lookahead:int -> config

val rule : config -> Instance.t -> Driver.t -> unit
(** [rule cfg inst] is a fresh decide callback for [inst] (its LRU heap
    is per-run state).
    @raise Invalid_argument if [lookahead < 1]. *)

val schedule : config -> Instance.t -> Fetch_op.schedule
(** @raise Invalid_argument if [lookahead < 1]. *)

val stats : config -> Instance.t -> Simulate.stats
(** @raise Driver.Invalid_schedule if the executor rejects the schedule (a bug). *)

val stall_time : config -> Instance.t -> int
val elapsed_time : config -> Instance.t -> int
