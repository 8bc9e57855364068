(** Pruned branch-and-bound engine for the exact optima: the only
    exact-optimum API.

    {!solve_single} is the single-disk optimum over greedy-content
    schedules (the Section 3 normalization, after Albers-Garg-Leonardi:
    every fetch loads the next missing block, evicts the
    furthest-next-reference block and starts at a decision point), with a
    witness schedule; [~free_evict:true] branches over every eviction
    instead, which validates the normalization.  {!solve_parallel} is the
    exhaustive parallel-disk optimum (ground truth for Theorem 4).  Each
    search is best-first over a monotone bucket queue keyed by
    accumulated stall, plus three pruning rules that leave the returned
    stall value bit-identical to the unpruned searches (the test suite
    keeps those as references):

    - {b Incumbent seeding}: the search starts with a feasible upper
      bound - the realized stall of the Aggressive policy rolled out in
      the engine's own state space (single disk) or of
      {!Parallel_greedy.aggressive_schedule} (parallel).  Any node that
      provably cannot beat the incumbent is discarded; if the whole
      frontier dies, the incumbent {e is} the optimum.
    - {b Admissible lower bound}: from a state with cursor [c] and cache
      mask [m], every block referenced at or after [c] and not cached
      (nor in flight) still needs an [F]-unit fetch on its home disk;
      per-disk fetch work beyond the [n - c] remaining service units is
      unavoidable stall.  Nodes with [stall + bound >= incumbent] are
      pruned.
    - {b Cache-mask dominance}: a popped state is discarded when an
      already-settled state at the same cursor (and, in parallel, the
      same in-flight configuration) was reached at no greater stall with
      a superset cache - the superset state can replay every schedule of
      the subset state at no extra cost.  This complements the
      cursor/hole dominance framework of {!Dominance} (Lemma 1), which
      reasons about {e algorithm} states; here it prunes {e search}
      states exactly.

    All searches are deterministic: bucket order is LIFO within a stall
    value and expansion order is fixed. *)

val max_blocks : int
(** = {!Bits.max_mask_bits} (62): cache states are bit masks. *)

val roll_forward : Instance.t -> c:int -> mask:int -> f:int -> int * int
(** [roll_forward inst ~c ~mask ~f] serves forward for [f] time units
    from cursor [c] with cache mask [mask]; returns [(cursor', stall)]. *)

type stats = {
  expanded : int;  (** nodes popped and expanded *)
  pruned : int;  (** successors discarded by the admissible lower bound *)
  dominated : int;  (** nodes discarded by cache-mask dominance *)
  deduped : int;  (** stale queue entries skipped *)
  incumbent_stall : int option;
      (** the seed upper bound, when a greedy incumbent existed *)
  improved : bool;
      (** the search found a schedule strictly better than the incumbent *)
}

type failure =
  | Budget_exhausted of { budget : int; expanded : int }
      (** the node budget ran out before optimality was proven *)
  | Infeasible  (** no feasible schedule exists in the search space *)

exception Solver_failure of { solver : string; failure : failure }
(** Raised by the solvers when the node budget runs out or the search
    space holds no schedule; a printer is registered. *)

type outcome = {
  stall : int;  (** minimum achievable stall time *)
  schedule : Fetch_op.schedule option;
      (** witness achieving it (single-disk engines only) *)
  stats : stats;
}

val solve_single : ?node_budget:int -> ?free_evict:bool -> Instance.t -> outcome
(** Single-disk optimum over greedy-content schedules, with a witness
    ([schedule] is always [Some]).  With [free_evict:false] (default)
    evictions are fixed to the furthest-next-reference block - the
    Section 3 normalization; with [free_evict:true] every eviction
    candidate is branched on - the validation mode, which must return
    the same stall.  [node_budget] bounds the number of expanded nodes
    (default: unlimited).
    @raise Instance.Invalid beyond {!max_blocks} distinct blocks.
    @raise Solver_failure when the budget runs out ([Budget_exhausted])
    or no schedule exists ([Infeasible], never on valid instances). *)

val solve_parallel : ?node_budget:int -> ?extra_slots:int -> Instance.t -> outcome
(** Exhaustive parallel-disk optimum (timeline search, per-disk fetches
    in next-reference order, arbitrary evictions) with
    [cache_size + extra_slots] locations (default [extra_slots = 0]).
    No witness schedule.  Exponential: ground truth for Theorem 4 on
    instances of roughly 14 requests.
    @raise Instance.Invalid when blocks exceed {!max_blocks} or the
    packed (cursor, cache, in-flight) state encoding would overflow.
    @raise Solver_failure as {!solve_single}. *)

val solve : ?node_budget:int -> Instance.t -> outcome
(** Dispatch on [num_disks]: {!solve_single} for one disk,
    {!solve_parallel} otherwise. *)
