(** The seed driver engine, kept as a checking oracle.

    {!run} steps a {!Driver.create}d engine one instant at a time
    ([tick_completions], decide, [advance]) with no event skipping.  At
    every instant where some disk is idle (by the decide contract, the
    only instants a rule may act) it compares each answer a rule may
    read with a fresh scan over public state ([request_at], [in_cache],
    [block_in_flight], [next_ref] over block ids up to [max_block_seen],
    ties to the smaller id): [next_missing] and, per idle disk,
    [next_missing_on_disk] from the cursor, and [furthest_cached ~from:p]
    for every [p] from the cursor up to the next miss or [reach] past the
    cursor.  It never flushes telemetry, so the [driver.*] counters are
    left alone. *)

exception Mismatch of string
(** A fast answer differed from the scan: the instant, the query and
    both answers. *)

val run : ?reach:int -> Instance.t -> decide:(Driver.t -> unit) -> Driver.t
(** The finished engine, for its schedule, clock and stall count.
    [reach] (default 0) should be at least the rule's delay distance.
    @raise Mismatch on the first disagreeing answer.
    @raise Simulate.Internal_error if the rule deadlocks. *)

val online_rule : Online.config -> Instance.t -> Driver.t -> unit
(** Online's seed rule (a fresh callback per run): every decision scores
    each cached block and folds for the victim. *)

val delay_rule : d:int -> unit -> Driver.t -> unit
(** Delay(d)'s seed rule (a fresh callback per run): one
    [furthest_cached] query for whether some cached block is requested
    only after the miss, a second for the victim. *)

(** {1 Production against the seed loop} *)

type rule = {
  name : string;
  schedule : Instance.t -> Fetch_op.schedule;  (** production, on {!Driver.run} *)
  seed : Instance.t -> Driver.t -> unit;  (** a fresh decide callback for {!run} *)
  reach : Instance.t -> int;  (** the rule's delay distance, 0 without one *)
  plans_min : bool;  (** plans through {!Paging.min_offline} *)
}

(** The batch schedulers.  [delay] and [online] run {!delay_rule} and
    {!online_rule} in the seed loop; the others their own [rule].
    [reverse_aggressive] first checks its guidance pass, [aggressive]
    ([aggressive_d] on D disks) on {!Reverse_aggressive.reverse_instance},
    and fails with that pass's mismatch. *)

val aggressive : rule
val conservative : rule
val delay : int -> rule
val combination : rule
val fixed_horizon : rule
val reverse_aggressive : rule
val online : Online.config -> rule
val aggressive_d : rule
val conservative_d : rule

val min_scan : Instance.t -> Paging.result
(** Belady's MIN by a scan over the cache at every miss (ties to the
    smaller id): the oracle for {!Paging.min_offline}'s eviction heap.
    It reports no telemetry. *)

val check : Instance.t -> rule list -> Ck_oracle.outcome
(** [Pass] when, for every rule, the production schedule is
    byte-identical to the seed loop's, every cross-check agrees, and
    (with [plans_min]) [Paging.min_offline inst = min_scan inst].
    Otherwise [Fail] for the first rule that disagrees, carrying its
    production schedule. *)
