(** Reverse Aggressive (Kimbrel-Karlin) as a practical baseline.

    Aggressive run on the reversed sequence, mirrored back (a reverse
    fetch of [b] evicting [e] becomes a forward fetch of [e] evicting [b]),
    giving a [1 + D*F/k] elapsed-time guarantee in the original setting.
    Because the exact mirror needs the forward schedule's final cache to
    match the reverse run's initial cache, this implementation uses the
    mirrored pairs as {e guidance} and falls back to
    furthest-next-reference eviction whenever a hint is inconsistent with
    the actual cache state; the result is always executor-valid.  See
    DESIGN.md for the faithfulness discussion. *)

val reverse_instance : Instance.t -> Instance.t
(** The reversed instance used for the guidance run (warm initial cache of
    the reversed sequence). *)

val eviction_hints : Instance.t -> int array
(** Indexed by block [b]: the preferred victim when fetching [b], or [-1]
    for no hint, harvested from the reverse run. *)

val rule : Instance.t -> Driver.t -> unit
(** The decide callback {!schedule} runs on [inst]: furthest-reference
    Aggressive steered by [eviction_hints inst], computed once here. *)

val schedule : Instance.t -> Fetch_op.schedule

val stats : Instance.t -> Simulate.stats
(** @raise Driver.Invalid_schedule if the executor rejects the schedule (a bug). *)

val stall_time : Instance.t -> int
val elapsed_time : Instance.t -> int
