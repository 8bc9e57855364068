(** The synchronized-schedule linear program of Section 3 of the paper.

    A synchronized schedule executes fetches in lock-step batches across
    all [D] disks, with no two fetch intervals properly intersecting.
    Lemma 3: some synchronized schedule using at most [D-1] extra cache
    locations achieves the optimal stall time [s_OPT(sigma, k)], so the LP
    below (relaxing the paper's 0-1 program, solved exactly) lower-bounds
    the true optimum; {!Rounding} turns its fractional optimum into an
    integral schedule with at most [2(D-1)] extra locations (Theorem 4).

    Modelling notes (see DESIGN.md): the cache is padded to [k + D - 1]
    with dummy "Sinit" blocks exactly as in the paper; each disk gets one
    never-requested "junk" block so idle disks can satisfy the
    all-disks-fetch requirement of synchronized batches (junk fetches are
    dropped when emitting executable schedules); and blocks that start in
    cache and are requested may be evicted and re-fetched before their
    first reference, a case absent from the paper's model. *)

(** Fetch interval [(lo, hi)] in the paper's coordinates: the batch starts
    after the [lo]-th request (1-based) and ends before the [hi]-th; its
    length is [hi - lo - 1 <= F] and it incurs [F - length] stall units. *)
type interval = { lo : int; hi : int }

val interval_length : interval -> int
val interval_contains : outer:interval -> inner:interval -> bool
val compare_interval : interval -> interval -> int
val pp_interval : Format.formatter -> interval -> unit

(** Instance augmented with the Sinit padding and junk blocks. *)
type augmented = {
  inst : Instance.t;
  n : int;
  num_disks : int;
  base_blocks : int;  (** ids below this are real blocks *)
  sinit : int list;  (** dummy initially-cached blocks (evictable once) *)
  junk : int array;  (** one never-requested fetchable block per disk *)
  total_blocks : int;
  disk_of : int array;  (** extended over the dummies *)
  initial_cache : int list;
  occurrences : int list array;  (** per real block, 1-based request indices *)
}

val augment : Instance.t -> augmented
val all_intervals : augmented -> interval list

type window_kind = [ `Mandatory_fetch | `Balanced | `Evict_only ]

val windows : augmented -> int -> (window_kind * interval) list
(** The fetch/eviction windows of a real block: before its first request
    ([`Mandatory_fetch] if initially absent, [`Balanced] otherwise),
    between consecutive requests ([`Balanced]: fetches = evictions <= 1),
    and after its last request ([`Evict_only]). *)

type var_kind = X of int | F_var of int * int | E_var of int * int | Pool of int
(** [Pool i] is the pooled Sinit eviction mass of interval [i]: the Sinit
    dummies are symmetric, so their per-dummy eviction variables are
    collapsed into one pool variable per interval (range [0, n_sinit],
    not 0-1) with a single budget row. *)

type built = {
  aug : augmented;
  intervals : interval array;  (** all candidate intervals, in < order *)
  problem : Lp_problem.t;
  kind_of : var_kind array;  (** the kind of each LP variable, by index *)
}

val build : Instance.t -> built
(** Construct the LP: objective [sum x(I) (F - |I|)], the
    one-batch-per-request constraint, per-disk fetch rows, fetch =
    eviction balance, per-block window constraints and the Sinit budget
    row — after exact model prunings (junk variables projected out as C2
    slacks, Sinit evictions pooled, subsumed [x <= 1] caps dropped) that
    shrink the tableau several-fold without changing the optimum;
    {!extract} reconstructs the implicit masses. *)

(** Optimal fractional solution restricted to its support, in < order. *)
type fractional = {
  faug : augmented;
  supp : interval array;
  sx : Rat.t array;
  sfetch : (int * Rat.t) list array;  (** per interval: (block, mass) *)
  sevict : (int * Rat.t) list array;
  value : Rat.t;
}

val extract : built -> Rat.t array -> fractional

type solve_result = { frac : fractional; lp_value : Rat.t }

exception Lp_infeasible

val solve : ?solver:(Lp_problem.t -> Lp_problem.result) -> Instance.t -> solve_result
(** Solve with the sparse revised hybrid solver ({!Revised.solve_lp}) by
    default.
    @raise Lp_infeasible if the model is infeasible (an instance where some
    block cannot be fetched before its first request). *)

val lower_bound : Instance.t -> Rat.t
(** The LP optimum: a certified lower bound on the best synchronized
    schedule with [k + D - 1] locations, hence (Lemma 3) on
    [s_OPT(sigma, k)]. *)
