(** The LP solver's statistics counters.

    {!Revised} is the only LP solver; it writes these counters.  They stay
    here, process-global, because the benchmark harness
    ([perfbench/bench.ml]) reads them through {!stats_snapshot} and
    {!stats_since}; a per-solve record returned by the solver would
    replace them. *)

type stats = {
  mutable float_solves : int;  (** hybrid solves started *)
  mutable certified : int;  (** float optima certified exactly *)
  mutable fallbacks : int;  (** solves that fell back to exact pivoting *)
  mutable pivots : int;  (** total pivots, both fields, both phases *)
  mutable degenerate_pivots : int;  (** pivots with no objective change *)
  mutable bland_switches : int;
      (** Dantzig [->] Bland anti-stalling transitions *)
  mutable refactorizations : int;  (** basis refactorizations *)
  mutable warm_accepts : int;  (** warm-start bases installed successfully *)
  mutable warm_rejects : int;  (** warm-start bases rejected (cold restart) *)
}

val stats : stats
(** Global counters, written by {!Revised} and forwarded to the telemetry
    registry as [revised.*] metrics when metrics are enabled.  The
    counters accumulate for the whole process: per-run reporting must
    subtract a {!stats_snapshot} taken before the run ({!stats_since}),
    or {!stats_reset} first. *)

val stats_snapshot : unit -> stats
(** An independent copy of the current counters. *)

val stats_reset : unit -> unit
(** Zero all counters. *)

val stats_since : stats -> stats
(** [stats_since snap] is the per-field difference between the current
    counters and the snapshot [snap]. *)
