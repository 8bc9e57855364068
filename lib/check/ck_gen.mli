(** Deterministic tiered instance generation for the conformance fuzzer.

    Case [i] of a run is a pure function of [(seed, i)], so a failing
    case index reproduces exactly.  Cases cycle through three tiers:

    - {b Tiny}: small enough for the assumption-free exhaustive optimum
      and the synchronized LP, enabling the full differential battery.
    - {b Single}: one disk, sized for the DP optimum ([Opt.solve_single]), the
      regime of Theorems 1-3; occasionally draws the paper's Theorem-2
      lower-bound construction itself.
    - {b Parallel}: 2-4 disks under striped / partitioned / random /
      hot-skewed layouts, exercised by the validity, accounting and
      replay oracles.

    Sequences come from [lib/workload]'s families plus loop and
    interleaved-stream patterns; initial caches are warm, cold or a
    random subset of referenced blocks. *)

type tier = Tiny | Single | Parallel

val tier_name : tier -> string

type case = {
  index : int;
  tier : tier;
  descr : string;  (** human-readable parameters, e.g. "zipf n=24 k=3 F=4 D=1 warm" *)
  inst : Instance.t;
}

val generate : seed:int -> index:int -> case

val generate_single_disk : seed:int -> index:int -> case
(** Like {!generate} but only Tiny/Single tiers (always [num_disks = 1]);
    used by the planted-bug self-test whose broken scheduler is
    single-disk. *)
