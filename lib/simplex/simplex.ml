(* Process-global LP solver statistics.  The int increments live inside
   {!Revised}'s pivot loop and are always on; the hybrid driver forwards
   per-solve deltas to the telemetry registry as [revised.*] metrics when
   metrics are enabled. *)

type stats = {
  mutable float_solves : int;
  mutable certified : int;
  mutable fallbacks : int;
  mutable pivots : int;  (* total pivots, both fields, both phases *)
  mutable degenerate_pivots : int;  (* pivots with no objective change *)
  mutable bland_switches : int;  (* Dantzig -> Bland anti-stalling transitions *)
  mutable refactorizations : int;  (* basis refactorizations *)
  mutable warm_accepts : int;  (* warm-start bases installed successfully *)
  mutable warm_rejects : int;  (* warm-start bases rejected (cold restart) *)
}

let stats =
  { float_solves = 0; certified = 0; fallbacks = 0; pivots = 0; degenerate_pivots = 0;
    bland_switches = 0; refactorizations = 0; warm_accepts = 0; warm_rejects = 0 }

(* The counters above accumulate across the whole process.  Per-run
   reporting (tests, benches, `--stats`-style output) must work in deltas:
   take a snapshot before the run and subtract it afterwards, or reset. *)

let stats_snapshot () =
  { float_solves = stats.float_solves; certified = stats.certified;
    fallbacks = stats.fallbacks; pivots = stats.pivots;
    degenerate_pivots = stats.degenerate_pivots; bland_switches = stats.bland_switches;
    refactorizations = stats.refactorizations; warm_accepts = stats.warm_accepts;
    warm_rejects = stats.warm_rejects }

let stats_reset () =
  stats.float_solves <- 0;
  stats.certified <- 0;
  stats.fallbacks <- 0;
  stats.pivots <- 0;
  stats.degenerate_pivots <- 0;
  stats.bland_switches <- 0;
  stats.refactorizations <- 0;
  stats.warm_accepts <- 0;
  stats.warm_rejects <- 0

let stats_since (s0 : stats) =
  { float_solves = stats.float_solves - s0.float_solves;
    certified = stats.certified - s0.certified;
    fallbacks = stats.fallbacks - s0.fallbacks;
    pivots = stats.pivots - s0.pivots;
    degenerate_pivots = stats.degenerate_pivots - s0.degenerate_pivots;
    bland_switches = stats.bland_switches - s0.bland_switches;
    refactorizations = stats.refactorizations - s0.refactorizations;
    warm_accepts = stats.warm_accepts - s0.warm_accepts;
    warm_rejects = stats.warm_rejects - s0.warm_rejects }
