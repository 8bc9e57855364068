(** Resilient executor: replay a planned schedule online under a
    {!Faults} plan and re-plan the suffix instead of aborting when the
    faults make the plan diverge.

    {!Simulate.run_faulty} executes a {e fixed} schedule under faults and
    can therefore deadlock (Error) once an abandoned fetch leaves a
    requested block unreachable.  This executor follows the plan while it
    remains applicable and, at the first divergence it cannot absorb - a
    requested block that no planned, in-flight or retrying fetch will
    supply, an eviction victim that is gone, a fetch that no longer fits -
    discards the rest of the plan and schedules the remaining suffix
    greedily with the paper's Aggressive rule (its per-disk Aggressive-D
    form when [D > 1]), skipping down disks and retrying failed fetches
    under the plan's policy.  It never rejects: every instance finishes,
    and the price of the faults is visible as achieved stall, retries and
    re-plans in the returned report (and through the [resilient.*]
    telemetry counters).

    None of the paper's approximation guarantees survive a non-empty
    fault plan - this is explicitly the regime outside the theorems (see
    DESIGN.md); the executor's job is graceful degradation, not
    optimality. *)

type outcome = {
  stats : Simulate.stats;
      (** achieved timing; [stall_by_fetch] is not populated (the fetch
          set is dynamic), [events] and [occupancy] need
          [record_events] *)
  report : Faults.report;  (** includes [replans] and the fault events *)
  replanned_at : int option;
      (** cursor position of the first suffix re-plan, if any *)
  greedy_fetches : int;  (** fetches issued by the re-planning rule *)
}

val execute :
  ?record_events:bool -> ?extra_slots:int -> faults:Faults.t -> Instance.t ->
  Fetch_op.schedule -> outcome
(** With [Faults.none] and a valid schedule this follows the plan
    faithfully (no re-plans, stall equal to {!Simulate.run}).  The
    schedule must be statically well-formed (anchors in range, blocks on
    their home disks).
    @raise Simulate.Invalid_schedule if it is not.
    @raise Simulate.Internal_error on the astronomically-unlikely fault
    streak that exceeds the internal time horizon. *)
