(** Planted-bug self-test: prove the harness catches real bugs.

    Three deliberately broken schedulers are fed through the fuzz engine:

    - [broken_aggressive]: fetches like Aggressive but drops its guard
      (fetch even when every cached block is needed sooner) and inverts
      Belady - it evicts the cached block referenced {e soonest}.  The
      Theorem-1 oracle must catch the resulting thrashing.
    - [no_evict_aggressive]: Aggressive's schedule with every eviction
      stripped.  The validity oracle must catch the capacity violation.
    - [every_other_call_aggressive]: Aggressive that acts only on every
      other decide call unless the cursor's block is missing - per-call
      state that breaks {!Driver.run}'s decide contract.  Its schedules
      are valid, so only the seed-loop differential ({!Ck_seed.check})
      can catch it.

    Each run reports the shrunk counterexample; the acceptance criterion
    is a counterexample of at most 12 requests. *)

val broken_aggressive_schedule : Instance.t -> Fetch_op.schedule
val no_evict_schedule : Instance.t -> Fetch_op.schedule

type finding = {
  oracle_name : string;
  cases_tried : int;  (** cases generated before the first failure *)
  original : Ck_gen.case;
  first_msg : string;
  shrunk : Instance.t;
  shrunk_msg : string;
}

val find_planted :
  seed:int -> max_cases:int -> oracle:Ck_oracle.t -> (finding, string) Result.t
(** Runs single-disk cases through [oracle] until it fails, then shrinks.
    [Error] when no failure surfaces within [max_cases]. *)

val run : seed:int -> max_cases:int -> (finding list, string) Result.t
(** The three planted bugs, in the order above; [Error] if any goes
    undetected. *)
