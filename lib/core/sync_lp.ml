(* The synchronized-schedule linear program of Section 3.

   A synchronized schedule executes fetches in batches: in each fetch
   interval all D disks fetch in lock-step, and no two intervals properly
   intersect.  Lemma 3: some synchronized schedule using at most D-1 extra
   cache locations achieves the optimal stall time s_OPT(sigma, k).  The
   0-1 program below (relaxed to an LP and solved exactly) finds the best
   synchronized schedule; {!Rounding} turns its fractional optimum into an
   integral schedule with at most 2(D-1) extra locations (Theorem 4).

   Interval coordinates are the paper's: I = (i, j) with 0 <= i < j <= n
   represents a fetch starting after the i-th request (1-based) and ending
   before the j-th; |I| = j - i - 1 <= F, and the batch incurs F - |I|
   stall units at its end.

   Model notes (documented in DESIGN.md):
   - The cache is padded to k + D - 1 locations with dummy "Sinit" blocks
     that are never requested and may be evicted once, exactly as in the
     paper.
   - Each disk gets one never-requested, initially-absent "junk" block so
     that idle disks can satisfy the all-D-disks-fetch requirement of
     synchronized batches (Lemma 3 fetches an arbitrary block on idle
     disks).  A junk fetch is dropped when the integral schedule is
     emitted - it only exists to keep batches synchronized.
   - Blocks that start in cache AND are requested may be evicted and
     re-fetched before their first reference (window treated like a middle
     window); the paper's model has no such blocks. *)

type interval = { lo : int; hi : int }

let interval_length iv = iv.hi - iv.lo - 1

let interval_contains ~outer ~inner = inner.lo >= outer.lo && inner.hi <= outer.hi

let pp_interval fmt iv = Format.fprintf fmt "(%d,%d)" iv.lo iv.hi

(* Interval order <: by start point, then end point. *)
let compare_interval a b =
  match compare a.lo b.lo with 0 -> compare a.hi b.hi | c -> c

type augmented = {
  inst : Instance.t;
  n : int;
  num_disks : int;
  base_blocks : int;  (* ids < base_blocks are real *)
  sinit : int list;  (* dummy initially-cached blocks *)
  junk : int array;  (* per-disk junk block id *)
  total_blocks : int;
  disk_of : int array;  (* extended over dummies *)
  initial_cache : int list;  (* real initial cache + sinit *)
  occurrences : int list array;  (* per real block, 1-based request indices *)
}

let augment (inst : Instance.t) : augmented =
  let n = Instance.length inst in
  let d = inst.Instance.num_disks in
  let k = inst.Instance.cache_size in
  let base = Instance.num_blocks inst in
  let n_sinit = (k - List.length inst.Instance.initial_cache) + (d - 1) in
  let sinit = List.init n_sinit (fun i -> base + i) in
  let junk = Array.init d (fun i -> base + n_sinit + i) in
  let total = base + n_sinit + d in
  let disk_of =
    Array.init total (fun b ->
        if b < base then inst.Instance.disk_of.(b)
        else if b < base + n_sinit then 0
        else b - (base + n_sinit))
  in
  let occurrences = Array.make base [] in
  Array.iteri (fun p b -> occurrences.(b) <- (p + 1) :: occurrences.(b)) inst.Instance.seq;
  Array.iteri (fun b l -> occurrences.(b) <- List.rev l) occurrences;
  { inst;
    n;
    num_disks = d;
    base_blocks = base;
    sinit;
    junk;
    total_blocks = total;
    disk_of;
    initial_cache = inst.Instance.initial_cache @ sinit;
    occurrences }

(* All candidate intervals. *)
let all_intervals (aug : augmented) : interval list =
  let f = aug.inst.Instance.fetch_time in
  let acc = ref [] in
  for i = aug.n - 1 downto 0 do
    let hi_max = Stdlib.min aug.n (i + f + 1) in
    for j = hi_max downto i + 1 do
      acc := { lo = i; hi = j } :: !acc
    done
  done;
  !acc

(* Fetch windows of a real block: pairs (lo, hi) such that a fetch interval
   for the block must satisfy lo <= I.lo and I.hi <= hi.  [`Mandatory]
   marks the before-first-request window of an initially-absent block. *)
type window_kind = [ `Mandatory_fetch | `Balanced | `Evict_only ]

let windows (aug : augmented) (b : int) : (window_kind * interval) list =
  let initially_cached = List.mem b aug.inst.Instance.initial_cache in
  match aug.occurrences.(b) with
  | [] -> []
  | first :: _ as occs ->
    let rec middles = function
      | a :: (c :: _ as rest) -> (`Balanced, { lo = a; hi = c }) :: middles rest
      | [ last ] -> [ (`Evict_only, { lo = last; hi = aug.n }) ]
      | [] -> []
    in
    let w0 =
      if initially_cached then (`Balanced, { lo = 0; hi = first })
      else (`Mandatory_fetch, { lo = 0; hi = first })
    in
    w0 :: middles occs

type var_kind = X of int | F_var of int * int | E_var of int * int | Pool of int
(* X interval-index; F_var/E_var (interval-index, real block); Pool
   interval-index = pooled Sinit eviction mass (see build). *)

type built = {
  aug : augmented;
  intervals : interval array;
  problem : Lp_problem.t;
  kind_of : var_kind array;  (* indexed by LP variable *)
}

(* Model prunings applied before the tableau is built (all exact: they
   preserve the LP *and* ILP optimum; proofs sketched in DESIGN.md):

   - Junk fetch variables are eliminated.  A junk variable appears with
     coefficient +1 in exactly one row (its batch/disk C2 equality) and
     nowhere else, i.e. it is a slack in disguise: projecting it out turns
     C2 into [sum of real fetches on the disk <= x(I)], and rows with no
     real fetch variable become trivial and are dropped.  The executable
     schedule's junk masses are reconstructed in [extract].
   - Sinit eviction variables are pooled.  The Sinit dummies are fully
     symmetric (never requested, evictable once, cost-free), so the
     per-(dummy, interval) variables e_{s,I} with per-dummy rows
     [sum_I e_{s,I} <= 1] are replaced by one pool variable p_I per
     interval with the single row [sum_I p_I <= n_sinit]; a greedy
     transportation split recovers per-dummy masses (each <= 1) exactly,
     for integral solutions integrally.  Pool variables only exist where
     a real fetch is possible (eviction requires a same-batch fetch).
   - [x(I) <= 1] rows are kept only for zero-length intervals: any
     interval with hi >= lo + 2 appears in the C1 row of request lo + 1,
     which already caps its mass at 1.
   - Assembly is index-driven: intervals are sorted by (lo, hi), so the
     intervals contained in a window are a run-prefix union found in
     O(width + matches), replacing the O(intervals x vars) table scans
     that dominated build time. *)

let build (inst : Instance.t) : built =
  let aug = augment inst in
  let f = inst.Instance.fetch_time in
  let intervals = Array.of_list (all_intervals aug) in
  Array.sort compare_interval intervals;
  let ni = Array.length intervals in
  let n_sinit = List.length aug.sinit in
  (* start_of.(l): first index whose interval has lo >= l.  Within a run of
     equal lo the hi endpoints are ascending. *)
  let start_of = Array.make (aug.n + 1) ni in
  for ii = ni - 1 downto 0 do
    start_of.(intervals.(ii).lo) <- ii
  done;
  for l = aug.n - 1 downto 0 do
    if start_of.(l) > start_of.(l + 1) then start_of.(l) <- start_of.(l + 1)
  done;
  let iter_window (w : interval) (fn : int -> unit) =
    for l = w.lo to w.hi - 1 do
      let ii = ref start_of.(l) in
      let continue_ = ref true in
      while !continue_ && !ii < ni && intervals.(!ii).lo = l do
        if intervals.(!ii).hi <= w.hi then begin
          fn !ii;
          incr ii
        end
        else continue_ := false (* hi ascending within the run *)
      done
    done
  in
  let b = Lp_problem.Builder.create ~direction:Lp_problem.Minimize () in
  let kinds = ref [] in
  let mk kind name =
    let v = Lp_problem.Builder.add_var b name in
    kinds := kind :: !kinds;
    v
  in
  (* x variables. *)
  let xv =
    Array.init ni (fun i ->
        mk (X i) (Format.asprintf "x%a" pp_interval intervals.(i)))
  in
  (* f/e variables, window-pruned; per-interval buckets for row assembly. *)
  let f_vars = Hashtbl.create 1024 in
  (* (interval index, block) -> var *)
  let e_vars = Hashtbl.create 1024 in
  let f_of_interval = Array.make ni [] in
  (* (block, var), real blocks only *)
  let e_of_interval = Array.make ni [] in
  let add_f ii blk =
    if not (Hashtbl.mem f_vars (ii, blk)) then begin
      let v = mk (F_var (ii, blk)) (Format.asprintf "f%a_b%d" pp_interval intervals.(ii) blk) in
      Hashtbl.replace f_vars (ii, blk) v;
      f_of_interval.(ii) <- (blk, v) :: f_of_interval.(ii)
    end
  in
  let add_e ii blk =
    if not (Hashtbl.mem e_vars (ii, blk)) then begin
      let v = mk (E_var (ii, blk)) (Format.asprintf "e%a_b%d" pp_interval intervals.(ii) blk) in
      Hashtbl.replace e_vars (ii, blk) v;
      e_of_interval.(ii) <- (blk, v) :: e_of_interval.(ii)
    end
  in
  (* Real blocks: windows. *)
  let block_windows = Array.make aug.base_blocks [] in
  for blk = 0 to aug.base_blocks - 1 do
    block_windows.(blk) <- windows aug blk;
    List.iter
      (fun (kind, w) ->
         iter_window w (fun ii ->
             match kind with
             | `Mandatory_fetch -> add_f ii blk
             | `Balanced ->
               add_f ii blk;
               add_e ii blk
             | `Evict_only -> add_e ii blk))
      block_windows.(blk)
  done;
  (* Pooled Sinit eviction mass, where a real fetch can pay for it. *)
  let pool_v = Array.make ni (-1) in
  if n_sinit > 0 then
    for ii = 0 to ni - 1 do
      if f_of_interval.(ii) <> [] then
        pool_v.(ii) <- mk (Pool ii) (Format.asprintf "sp%a" pp_interval intervals.(ii))
    done;
  let one = Rat.one and mone = Rat.minus_one in
  (* Objective: sum x(I) * (F - |I|). *)
  Lp_problem.Builder.set_objective b
    (Array.to_list
       (Array.mapi (fun i iv -> (xv.(i), Rat.of_int (f - interval_length iv))) intervals));
  (* x(I) <= 1, where no C1 row subsumes it (zero-length intervals only). *)
  Array.iteri
    (fun i iv ->
       if interval_length iv = 0 then
         Lp_problem.Builder.add_row b [ (xv.(i), one) ] Lp_problem.Le one)
    intervals;
  (* (C1) at most one batch spans the service of any request. *)
  for m = 1 to aug.n - 1 do
    let coeffs = ref [] in
    for l = Stdlib.max 0 (m - f) to m - 1 do
      let ii = ref start_of.(l) in
      while !ii < ni && intervals.(!ii).lo = l do
        if intervals.(!ii).hi >= m + 1 then coeffs := (xv.(!ii), one) :: !coeffs;
        incr ii
      done
    done;
    if !coeffs <> [] then Lp_problem.Builder.add_row b !coeffs Lp_problem.Le one
  done;
  (* (C2) per batch and disk, real fetches <= x (junk projected out). *)
  for ii = 0 to ni - 1 do
    for disk = 0 to aug.num_disks - 1 do
      let coeffs =
        List.filter_map
          (fun (blk, v) -> if aug.disk_of.(blk) = disk then Some (v, one) else None)
          f_of_interval.(ii)
      in
      if coeffs <> [] then
        Lp_problem.Builder.add_row b ((xv.(ii), mone) :: coeffs) Lp_problem.Le Rat.zero
    done
  done;
  (* (C3) per batch, #real fetches = #evictions (junk is self-balancing). *)
  for ii = 0 to ni - 1 do
    let coeffs = ref [] in
    List.iter (fun (_, v) -> coeffs := (v, one) :: !coeffs) f_of_interval.(ii);
    List.iter (fun (_, v) -> coeffs := (v, mone) :: !coeffs) e_of_interval.(ii);
    if pool_v.(ii) >= 0 then coeffs := (pool_v.(ii), mone) :: !coeffs;
    if !coeffs <> [] then Lp_problem.Builder.add_row b !coeffs Lp_problem.Eq Rat.zero
  done;
  (* (C4) per-block window constraints. *)
  let sum_vars tbl blk w =
    let acc = ref [] in
    iter_window w (fun ii ->
        match Hashtbl.find_opt tbl (ii, blk) with
        | Some v -> acc := (v, one) :: !acc
        | None -> ());
    !acc
  in
  for blk = 0 to aug.base_blocks - 1 do
    List.iter
      (fun (kind, w) ->
         match kind with
         | `Mandatory_fetch ->
           let fs = sum_vars f_vars blk w in
           if fs = [] then
             (* No interval fits before the first request: infeasible
                unless the block starts in cache; leave an infeasible row
                so the solver reports it. *)
             Lp_problem.Builder.add_row b [] Lp_problem.Eq one
           else Lp_problem.Builder.add_row b fs Lp_problem.Eq one
         | `Balanced ->
           let fs = sum_vars f_vars blk w in
           let es = sum_vars e_vars blk w in
           Lp_problem.Builder.add_row b (fs @ List.map (fun (v, _) -> (v, mone)) es)
             Lp_problem.Eq Rat.zero;
           if fs <> [] then Lp_problem.Builder.add_row b fs Lp_problem.Le one
         | `Evict_only ->
           let es = sum_vars e_vars blk w in
           if es <> [] then Lp_problem.Builder.add_row b es Lp_problem.Le one)
      block_windows.(blk)
  done;
  (* (C5) the Sinit dummies sustain at most n_sinit pooled evictions. *)
  if n_sinit > 0 then begin
    let coeffs = ref [] in
    for ii = 0 to ni - 1 do
      if pool_v.(ii) >= 0 then coeffs := (pool_v.(ii), one) :: !coeffs
    done;
    if !coeffs <> [] then
      Lp_problem.Builder.add_row b !coeffs Lp_problem.Le (Rat.of_int n_sinit)
  end;
  let problem = Lp_problem.Builder.freeze b in
  let kind_of = Array.of_list (List.rev !kinds) in
  { aug; intervals; problem; kind_of }

(* ------------------------------------------------------------------ *)
(* Fractional solutions. *)

type fractional = {
  faug : augmented;
  (* Support intervals in < order with their x mass and per-interval fetch
     and eviction masses. *)
  supp : interval array;
  sx : Rat.t array;
  sfetch : (int * Rat.t) list array;  (* (block, amount), junk included *)
  sevict : (int * Rat.t) list array;
  value : Rat.t;
}

let extract (bt : built) (values : Rat.t array) : fractional =
  let ni = Array.length bt.intervals in
  let x = Array.make ni Rat.zero in
  let fetch = Array.make ni [] in
  let evict = Array.make ni [] in
  let pool = Array.make ni Rat.zero in
  Array.iteri
    (fun v kind ->
       let value = values.(v) in
       if not (Rat.is_zero value) then
         match kind with
         | X i -> x.(i) <- value
         | F_var (i, blk) -> fetch.(i) <- (blk, value) :: fetch.(i)
         | E_var (i, blk) -> evict.(i) <- (blk, value) :: evict.(i)
         | Pool i -> pool.(i) <- value)
    bt.kind_of;
  (* Keep only the support, in < order. *)
  let idx = ref [] in
  for i = ni - 1 downto 0 do
    if not (Rat.is_zero x.(i)) then idx := i :: !idx
  done;
  let idx = Array.of_list !idx in
  (* Reconstruct what the pruned model left implicit, so downstream
     consumers (the rounding surgery and its invariants) still see the
     full-model masses:
     - junk fetches: per disk, x(I) minus the real fetch mass on that disk
       (the projected-out C2 slack);
     - per-dummy Sinit evictions: split each interval's pooled mass
       greedily over the dummies, each absorbing at most 1 in total. *)
  let sinit_arr = Array.of_list bt.aug.sinit in
  let sidx = ref 0 in
  let sused = ref Rat.zero in
  let split_pool amount =
    let rec go amount acc =
      if Rat.sign amount <= 0 || !sidx >= Array.length sinit_arr then acc
      else begin
        let dummy = sinit_arr.(!sidx) in
        let cap = Rat.sub Rat.one !sused in
        let take = if Rat.le amount cap then amount else cap in
        sused := Rat.add !sused take;
        if Rat.ge !sused Rat.one then begin
          incr sidx;
          sused := Rat.zero
        end;
        go (Rat.sub amount take) ((dummy, take) :: acc)
      end
    in
    go amount []
  in
  Array.iter
    (fun i ->
       let xi = x.(i) in
       for disk = 0 to bt.aug.num_disks - 1 do
         let real =
           List.fold_left
             (fun acc (blk, amt) ->
                if bt.aug.disk_of.(blk) = disk then Rat.add acc amt else acc)
             Rat.zero fetch.(i)
         in
         let jmass = Rat.sub xi real in
         if Rat.sign jmass > 0 then
           fetch.(i) <- (bt.aug.junk.(disk), jmass) :: fetch.(i)
       done;
       if Rat.sign pool.(i) > 0 then
         evict.(i) <- split_pool pool.(i) @ evict.(i))
    idx;
  let value =
    Array.fold_left
      (fun acc i ->
         Rat.add acc
           (Rat.mul x.(i)
              (Rat.of_int (bt.aug.inst.Instance.fetch_time - interval_length bt.intervals.(i)))))
      Rat.zero idx
  in
  { faug = bt.aug;
    supp = Array.map (fun i -> bt.intervals.(i)) idx;
    sx = Array.map (fun i -> x.(i)) idx;
    sfetch = Array.map (fun i -> fetch.(i)) idx;
    sevict = Array.map (fun i -> evict.(i)) idx;
    value }

type solve_result = {
  frac : fractional;
  lp_value : Rat.t;
}

exception Lp_infeasible

let solve ?(solver = Revised.solve_lp) (inst : Instance.t) : solve_result =
  let bt = build inst in
  match solver bt.problem with
  | Lp_problem.Optimal { objective_value; values } ->
    let frac = extract bt values in
    { frac; lp_value = objective_value }
  | Lp_problem.Infeasible -> raise Lp_infeasible
  | Lp_problem.Unbounded -> Simulate.internal_error ~component:"Sync_lp" "unbounded (model bug)"

(* The LP optimum is a lower bound on the best synchronized schedule with
   k + D - 1 cache locations, hence (Lemma 3) on s_OPT(sigma, k). *)
let lower_bound inst = (solve inst).lp_value
