(** Scale fuzz tier (PR 8).

    The ck_gen corpus keeps instances small enough for exact oracles;
    this tier generates 10^4-10^5-request single-disk traces from the
    scale workload families and checks the seven production schedulers
    (aggressive, conservative, delay(d0), combination, fixed_horizon,
    online(la=4F), reverse_aggressive) where their fast paths actually
    matter:

    - {e validity + budget}: every schedule is accepted by the executor,
      and each scheduler finishes within {!budget_ratio} x Aggressive's
      time on the same case (with an absolute floor so timer noise on
      tiny shrunk instances cannot fail) - a hot-path regression to the
      old quadratic scans fails this immediately;
    - {e accounting}: the executor's stall/attribution identities on
      representative schedules;
    - {e fast vs reference}: byte-identical schedules against the seed
      loop ({!Ck_seed.check}: one instant at a time, every frontier and
      heap answer checked against a fresh scan) on a
      {!spot_check_cap}-request prefix (its per-instant scans cap the
      affordable length).

    Every third case (PR 9) is instead a 2-8-disk trace under the four
    disk layouts (tier [Parallel]); the same three properties are then
    checked over the D-disk schedulers (Aggressive-D, Conservative-D)
    plus the disk-agnostic pair, with the budget anchored to
    Aggressive-D and the seed-loop replay capped at
    {!parallel_spot_check_cap}.

    Cases are pure functions of [(seed, index)] like {!Ck_gen.generate},
    and are returned as {!Ck_gen.case}s so {!Ck_runner.run} can drive
    this tier unchanged via its [~generate] parameter. *)

val min_n : int
val max_n : int
val parallel_min_n : int
val parallel_max_n : int

val parallel_max_disks : int
(** Largest [D] the parallel sub-tier generates. *)

val parallel_spot_check_cap : int
(** Prefix length replayed through the seed loop on D-disk cases
    (shorter than {!spot_check_cap}: the replay runs both greedy-D
    schedulers and checks [D] per-disk frontiers each instant). *)

val budget_ratio : float
(** Per-scheduler wall-clock ceiling as a multiple of Aggressive's time
    on the same case - the acceptance bound the scale tier enforces. *)

val budget_floor_seconds : float
(** Absolute per-scheduler floor below which the ratio is not applied. *)

val spot_check_cap : int
(** Prefix length replayed through the seed loop. *)

val generate : seed:int -> index:int -> Ck_gen.case

val validity_and_budget : Ck_oracle.t
val accounting : Ck_oracle.t
val fast_vs_reference : Ck_oracle.t
val parallel_validity_and_budget : Ck_oracle.t
val parallel_accounting : Ck_oracle.t
val parallel_fast_vs_reference : Ck_oracle.t

val all : Ck_oracle.t list
(** The single-disk triple followed by the parallel triple; each oracle
    skips cases from the other tier. *)
