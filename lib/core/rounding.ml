(* Rounding an optimal fractional synchronized solution into an integral
   prefetching/caching schedule (Section 3, Lemma 4 / Theorem 4).

   Pipeline:
   1. normalize the fractional solution:
      a. crossing elimination - nested intervals must share an endpoint,
         which induces the linear order < used by the decomposition;
      b. property (1): per disk, fetch the missing block whose next
         reference is earliest;
      c. property (2): per disk, evict the block whose next reference is
         furthest;
      All three are implemented as mass swaps that are only applied when
      the affected blocks' fetch/evict windows permit; the executor
      validates the final schedule, so a skipped swap can only cost
      optimality, never correctness.
   2. view the solution as a process over time (dist(I) prefix sums), and
      for each candidate offset t in [0,1) collect the intervals I_t hit by
      the times t, t+1, t+2, ...; the best I_t has total stall at most the
      fractional optimum;
   3. assign evictions to the selected batches with the paper's Q_t queue;
      fetches without evictions go to extra cache slots (at most 2(D-1)
      beyond k in total, per Lemma 4);
   4. emit executor fetch operations (dropping the junk fetches that only
      existed to keep batches synchronized) and validate with
      {!Simulate.run}.  If a candidate produces an invalid schedule the
      next-best t is tried; as a last resort the greedy parallel baseline
      is returned with [used_fallback = true]. *)

module Iv = struct
  type t = Sync_lp.interval = { lo : int; hi : int }

  let compare = Sync_lp.compare_interval
end

type entry = {
  mutable iv : Iv.t;
  mutable x : Rat.t;
  fetch : (int, Rat.t) Hashtbl.t;  (* block -> mass; junk included *)
  evict : (int, Rat.t) Hashtbl.t;
}

type norm = {
  aug : Sync_lp.augmented;
  mutable entries : entry list;  (* sorted by < *)
  mutable laminar : bool;
}

let tbl_add tbl key amt =
  if not (Rat.is_zero amt) then begin
    let prev = Option.value ~default:Rat.zero (Hashtbl.find_opt tbl key) in
    let v = Rat.add prev amt in
    if Rat.is_zero v then Hashtbl.remove tbl key else Hashtbl.replace tbl key v
  end

let of_fractional (f : Sync_lp.fractional) : norm =
  let entries =
    Array.to_list
      (Array.mapi
         (fun i iv ->
            let fetch = Hashtbl.create 8 and evict = Hashtbl.create 8 in
            List.iter (fun (b, a) -> tbl_add fetch b a) f.Sync_lp.sfetch.(i);
            List.iter (fun (b, a) -> tbl_add evict b a) f.Sync_lp.sevict.(i);
            { iv; x = f.Sync_lp.sx.(i); fetch; evict })
         f.Sync_lp.supp)
  in
  { aug = f.Sync_lp.faug; entries = List.sort (fun a b -> Iv.compare a.iv b.iv) entries; laminar = true }

(* ------------------------------------------------------------------ *)
(* Window compatibility. *)

let is_junk aug blk = Array.exists (fun j -> j = blk) aug.Sync_lp.junk

(* Moving fetch/evict mass of a block between intervals is only sound when
   both intervals lie in the SAME window of that block: the per-window
   cardinality and balance rows of the LP are preserved exactly in that
   case, and can silently break otherwise. *)
let share_fetch_window aug blk iv1 iv2 =
  if is_junk aug blk then true
  else if blk >= aug.Sync_lp.base_blocks then false
  else
    List.exists
      (fun (kind, w) ->
         (match kind with `Evict_only -> false | `Mandatory_fetch | `Balanced -> true)
         && Sync_lp.interval_contains ~outer:w ~inner:iv1
         && Sync_lp.interval_contains ~outer:w ~inner:iv2)
      (Sync_lp.windows aug blk)

let share_evict_window aug blk iv1 iv2 =
  if is_junk aug blk then false
  else if blk >= aug.Sync_lp.base_blocks then true (* sinit: one global window *)
  else
    List.exists
      (fun (kind, w) ->
         (match kind with `Mandatory_fetch -> false | `Balanced | `Evict_only -> true)
         && Sync_lp.interval_contains ~outer:w ~inner:iv1
         && Sync_lp.interval_contains ~outer:w ~inner:iv2)
      (Sync_lp.windows aug blk)

(* ------------------------------------------------------------------ *)
(* 1a. Crossing elimination.

   Given a strictly-crossing pair inner = (i,j) strictly inside
   outer = (i',j'), move delta = min(x_inner, x_outer) of mass onto
   J = (i', j) and J' = (i, j').  The objective is invariant
   (|J| + |J'| = |I| + |I'|), but the fetch/evict masses must be
   redistributed subject to per-block window compatibility and the
   per-interval balance constraints.  That redistribution is itself a small
   feasibility LP, which we solve with the exact solver; if it is
   infeasible the pair is skipped (costing only optimality - the executor
   still validates whatever schedule comes out). *)

exception Stuck

let eliminate_pair (norm : norm) (inner : entry) (outer : entry) =
  let aug = norm.aug in
  let delta = Rat.min inner.x outer.x in
  let j_iv = { Iv.lo = outer.iv.Iv.lo; hi = inner.iv.Iv.hi } in
  let j'_iv = { Iv.lo = inner.iv.Iv.lo; hi = outer.iv.Iv.hi } in
  let module P = Lp_problem in
  let b = P.Builder.create ~direction:P.Minimize () in
  (* Variables: one per (source, block, destination) for fetch moves and
     eviction moves, created only when the window is compatible. *)
  let fetch_vars = ref [] and evict_vars = ref [] in
  let sources = [ (`Inner, inner); (`Outer, outer) ] in
  let dests = [ (`J, j_iv); (`J', j'_iv) ] in
  List.iter
    (fun (stag, src) ->
       Hashtbl.iter
         (fun blk avail ->
            List.iter
              (fun (dtag, div) ->
                 if share_fetch_window aug blk src.iv div then begin
                   let v =
                     P.Builder.add_var b
                       (Printf.sprintf "f_%s_b%d_%s"
                          (match stag with `Inner -> "in" | `Outer -> "out")
                          blk
                          (match dtag with `J -> "J" | `J' -> "J2"))
                   in
                   fetch_vars := (v, stag, src, blk, avail, dtag) :: !fetch_vars
                 end)
              dests)
         src.fetch;
       Hashtbl.iter
         (fun blk avail ->
            List.iter
              (fun (dtag, div) ->
                 if share_evict_window aug blk src.iv div then begin
                   let v =
                     P.Builder.add_var b
                       (Printf.sprintf "e_%s_b%d_%s"
                          (match stag with `Inner -> "in" | `Outer -> "out")
                          blk
                          (match dtag with `J -> "J" | `J' -> "J2"))
                   in
                   evict_vars := (v, stag, src, blk, avail, dtag) :: !evict_vars
                 end)
              dests)
         src.evict)
    sources;
  let one = Rat.one in
  (* Availability caps: total moved of a block from a source (over both
     destinations) is bounded by its mass there. *)
  let by_src_block vars =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (v, stag, _, blk, avail, _) ->
         let key = (stag, blk) in
         let prev = match Hashtbl.find_opt tbl key with Some (vs, a) -> (v :: vs, a) | None -> ([ v ], avail) in
         Hashtbl.replace tbl key prev)
      vars;
    tbl
  in
  Hashtbl.iter
    (fun _ (vs, avail) -> P.Builder.add_row b (List.map (fun v -> (v, one)) vs) P.Le avail)
    (by_src_block !fetch_vars);
  Hashtbl.iter
    (fun _ (vs, avail) -> P.Builder.add_row b (List.map (fun v -> (v, one)) vs) P.Le avail)
    (by_src_block !evict_vars);
  (* Per disk: each source gives up exactly delta, and each destination
     receives exactly delta (C2 for all four intervals). *)
  for d = 0 to aug.Sync_lp.num_disks - 1 do
    List.iter
      (fun (stag, _) ->
         let coeffs =
           List.filter_map
             (fun (v, st, _, blk, _, _) ->
                if st = stag && aug.Sync_lp.disk_of.(blk) = d then Some (v, one) else None)
             !fetch_vars
         in
         P.Builder.add_row b coeffs P.Eq delta)
      sources;
    List.iter
      (fun (dtag, _) ->
         let coeffs =
           List.filter_map
             (fun (v, _, _, blk, _, dt) ->
                if dt = dtag && aug.Sync_lp.disk_of.(blk) = d then Some (v, one) else None)
             !fetch_vars
         in
         P.Builder.add_row b coeffs P.Eq delta)
      dests
  done;
  (* Balance: per source, evictions moved = real fetches moved; per
     destination, evictions received = real fetches received (C3). *)
  let real (blk : int) = (not (is_junk aug blk)) && blk < aug.Sync_lp.total_blocks in
  List.iter
    (fun (stag, _) ->
       let fs =
         List.filter_map
           (fun (v, st, _, blk, _, _) ->
              if st = stag && real blk then Some (v, one) else None)
           !fetch_vars
       in
       let es =
         List.filter_map
           (fun (v, st, _, _, _, _) -> if st = stag then Some (v, Rat.minus_one) else None)
           !evict_vars
       in
       P.Builder.add_row b (fs @ es) P.Eq Rat.zero)
    sources;
  List.iter
    (fun (dtag, _) ->
       let fs =
         List.filter_map
           (fun (v, _, _, blk, _, dt) ->
              if dt = dtag && real blk then Some (v, one) else None)
           !fetch_vars
       in
       let es =
         List.filter_map
           (fun (v, _, _, _, _, dt) -> if dt = dtag then Some (v, Rat.minus_one) else None)
           !evict_vars
       in
       P.Builder.add_row b (fs @ es) P.Eq Rat.zero)
    dests;
  let problem = P.Builder.freeze b in
  match Revised.solve_lp problem with
  | P.Infeasible | P.Unbounded -> raise Stuck
  | P.Optimal { values; _ } ->
    (* Apply the moves. *)
    let find_or_create iv =
      match List.find_opt (fun e -> Iv.compare e.iv iv = 0) norm.entries with
      | Some e -> e
      | None ->
        let e = { iv; x = Rat.zero; fetch = Hashtbl.create 8; evict = Hashtbl.create 8 } in
        norm.entries <- List.sort (fun a b' -> Iv.compare a.iv b'.iv) (e :: norm.entries);
        e
    in
    let je = find_or_create j_iv and j'e = find_or_create j'_iv in
    inner.x <- Rat.sub inner.x delta;
    outer.x <- Rat.sub outer.x delta;
    je.x <- Rat.add je.x delta;
    j'e.x <- Rat.add j'e.x delta;
    let dest_entry = function `J -> je | `J' -> j'e in
    List.iter
      (fun (v, _, src, blk, _, dtag) ->
         let amt = values.(v) in
         if Rat.sign amt > 0 then begin
           tbl_add src.fetch blk (Rat.neg amt);
           tbl_add (dest_entry dtag).fetch blk amt
         end)
      !fetch_vars;
    List.iter
      (fun (v, _, src, blk, _, dtag) ->
         let amt = values.(v) in
         if Rat.sign amt > 0 then begin
           tbl_add src.evict blk (Rat.neg amt);
           tbl_add (dest_entry dtag).evict blk amt
         end)
      !evict_vars;
    norm.entries <- List.filter (fun e -> Rat.sign e.x > 0) norm.entries

let eliminate_crossings (norm : norm) =
  let max_rounds = 10_000 in
  let rec loop rounds skip =
    if rounds > max_rounds then norm.laminar <- false
    else begin
      (* Find a strictly-crossing pair not in the skip set (pairs are
         compared entry by entry, by physical identity). *)
      let pair =
        let rec find = function
          | [] -> None
          | e :: rest ->
            (match
               List.find_opt
                 (fun e' ->
                    e'.iv.Iv.lo > e.iv.Iv.lo && e'.iv.Iv.hi < e.iv.Iv.hi
                    && not (List.exists (fun (a, b) -> a == e && b == e') skip))
                 rest
             with
             | Some e' -> Some (e, e')
             | None -> find rest)
        in
        find norm.entries
      in
      match pair with
      | None -> if skip <> [] then norm.laminar <- false
      | Some (outer, inner) ->
        (match eliminate_pair norm inner outer with
         | () -> loop (rounds + 1) []
         | exception Stuck -> loop (rounds + 1) ((outer, inner) :: skip))
    end
  in
  loop 0 []

(* ------------------------------------------------------------------ *)
(* 1b/1c. Properties (1) and (2): earliest-fetch / furthest-evict swaps. *)

(* Next reference of block b at or after 1-based request index m. *)
let next_ref_from aug b m =
  if b >= aug.Sync_lp.base_blocks then max_int
  else begin
    let rec scan = function
      | [] -> max_int
      | o :: rest -> if o >= m then o else scan rest
    in
    scan aug.Sync_lp.occurrences.(b)
  end

let normalize_orders (norm : norm) =
  let aug = norm.aug in
  let entries = Array.of_list norm.entries in
  let ne = Array.length entries in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 50 do
    changed := false;
    incr rounds;
    (* Property (1): if interval I fetches a' while a (same disk, earlier
       next reference, window-compatible with I) is fetched in a later
       interval I' that is window-compatible with a', swap mass. *)
    for i = 0 to ne - 1 do
      let e = entries.(i) in
      for i' = i + 1 to ne - 1 do
        let e' = entries.(i') in
        Hashtbl.iter
          (fun a amt_a ->
             if Rat.sign amt_a > 0 then
               Hashtbl.iter
                 (fun a' amt_a' ->
                    if Rat.sign amt_a' > 0 && a <> a'
                       && (not (is_junk aug a)) && not (is_junk aug a')
                       && aug.Sync_lp.disk_of.(a) = aug.Sync_lp.disk_of.(a')
                       && next_ref_from aug a e.iv.Iv.hi < next_ref_from aug a' e.iv.Iv.hi
                       && share_fetch_window aug a e'.iv e.iv
                       && share_fetch_window aug a' e.iv e'.iv
                    then begin
                      let m = Rat.min amt_a amt_a' in
                      tbl_add e'.fetch a (Rat.neg m);
                      tbl_add e.fetch a m;
                      tbl_add e.fetch a' (Rat.neg m);
                      tbl_add e'.fetch a' m;
                      changed := true
                    end)
                 (Hashtbl.copy e.fetch))
          (Hashtbl.copy e'.fetch)
      done
    done;
    (* Property (2): symmetric for evictions - evict the
       furthest-next-reference block as early as possible. *)
    for i = 0 to ne - 1 do
      let e = entries.(i) in
      for i' = i + 1 to ne - 1 do
        let e' = entries.(i') in
        Hashtbl.iter
          (fun a amt_a ->
             (* a evicted later although its next reference is further. *)
             if Rat.sign amt_a > 0 then
               Hashtbl.iter
                 (fun a' amt_a' ->
                    if Rat.sign amt_a' > 0 && a <> a'
                       && aug.Sync_lp.disk_of.(a) = aug.Sync_lp.disk_of.(a')
                       && next_ref_from aug a e.iv.Iv.hi > next_ref_from aug a' e.iv.Iv.hi
                       && share_evict_window aug a e'.iv e.iv
                       && share_evict_window aug a' e.iv e'.iv
                    then begin
                      let m = Rat.min amt_a amt_a' in
                      tbl_add e'.evict a (Rat.neg m);
                      tbl_add e.evict a m;
                      tbl_add e.evict a' (Rat.neg m);
                      tbl_add e'.evict a' m;
                      changed := true
                    end)
                 (Hashtbl.copy e.evict))
          (Hashtbl.copy e'.evict)
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* 2. Time decomposition and candidate selection. *)

type decomposition = {
  dnorm : norm;
  darr : entry array;
  dist : Rat.t array;  (* dist.(m) = sum of x over entries < m *)
  total : Rat.t;
  (* Per entry, per disk: blocks fetched sorted by next reference with their
     sub-offsets: (block, offset_start, amount). *)
  fetch_slots : (int * Rat.t * Rat.t) list array array;
}

let decompose (norm : norm) : decomposition =
  let aug = norm.aug in
  let darr = Array.of_list norm.entries in
  let ne = Array.length darr in
  let dist = Array.make ne Rat.zero in
  let acc = ref Rat.zero in
  Array.iteri
    (fun m e ->
       dist.(m) <- !acc;
       acc := Rat.add !acc e.x)
    darr;
  let fetch_slots =
    Array.map
      (fun e ->
         Array.init aug.Sync_lp.num_disks (fun d ->
             let blocks =
               Hashtbl.fold
                 (fun b amt acc -> if aug.Sync_lp.disk_of.(b) = d then (b, amt) :: acc else acc)
                 e.fetch []
             in
             let blocks =
               List.sort
                 (fun (b1, _) (b2, _) ->
                    compare (next_ref_from aug b1 e.iv.Iv.hi, b1) (next_ref_from aug b2 e.iv.Iv.hi, b2))
                 blocks
             in
             let off = ref Rat.zero in
             List.map
               (fun (b, amt) ->
                  let s = !off in
                  off := Rat.add !off amt;
                  (b, s, amt))
               blocks))
      darr
  in
  { dnorm = norm; darr; dist; total = !acc; fetch_slots }

(* Times hit within entry m for offset t: list of (global_time_index,
   local_offset).  t in [0,1). *)
let hits (dc : decomposition) m (t : Rat.t) : Rat.t list =
  let lo = dc.dist.(m) and x = dc.darr.(m).x in
  (* smallest integer i with t + i >= lo *)
  let first = Rat.ceil (Rat.sub lo t) in
  let rec collect i acc =
    let ti = Rat.add t (Rat.of_bigint i) in
    if Rat.lt ti (Rat.add lo x) then collect (Bigint.succ i) (Rat.sub ti lo :: acc) else List.rev acc
  in
  collect (Bigint.max first Bigint.zero) []

let candidate_ts (dc : decomposition) : Rat.t list =
  let ts =
    Array.to_list dc.dist
    |> List.map Rat.fractional
  in
  List.sort_uniq Rat.compare (Rat.zero :: ts)

(* Nominal stall of the selection I_t. *)
let selection (dc : decomposition) (t : Rat.t) : (int * Rat.t) list =
  (* entry index + local offset of the hit (x <= 1 ensures <= 1 hit). *)
  let acc = ref [] in
  Array.iteri
    (fun m _ ->
       match hits dc m t with
       | [] -> ()
       | off :: _ -> acc := (m, off) :: !acc)
    dc.darr;
  List.rev !acc

let nominal_stall (dc : decomposition) (sel : (int * Rat.t) list) : int =
  let f = dc.dnorm.aug.Sync_lp.inst.Instance.fetch_time in
  List.fold_left
    (fun acc (m, _) -> acc + (f - Sync_lp.interval_length dc.darr.(m).iv))
    0 sel

(* ------------------------------------------------------------------ *)
(* 3. Eviction assignment (the Q_t queue of Lemma 4). *)

(* For the selection [sel], find the block fetched on [disk] in entry [m]
   at local offset [off]. *)
let block_at (dc : decomposition) m disk (off : Rat.t) : int option =
  let slots = dc.fetch_slots.(m).(disk) in
  let rec find = function
    | [] -> None
    | (b, s, amt) :: rest ->
      if Rat.le s off && Rat.lt off (Rat.add s amt) then Some b else find rest
  in
  find slots

(* Does block [b]'s fetch-back (its earliest fetch mass in entries > m)
   intersect a selected time?  Used to decide membership in Q_t. *)
let fetched_back_selected (dc : decomposition) (sel : (int * Rat.t) list) ~after_m b : bool =
  List.exists
    (fun (m, off) ->
       m > after_m
       &&
       let disk = dc.dnorm.aug.Sync_lp.disk_of.(b) in
       match block_at dc m disk off with Some b' -> b' = b | None -> false)
    sel

type batch = {
  entry_index : int;
  biv : Iv.t;
  fetches : (int * int) list;  (* (disk, block), junk dropped later *)
  mutable evictions : int list;
}

let assign_evictions (dc : decomposition) (sel : (int * Rat.t) list) : batch list =
  let aug = dc.dnorm.aug in
  let sel_set = List.map fst sel in
  let batches =
    List.map
      (fun (m, off) ->
         let fetches = ref [] in
         for d = 0 to aug.Sync_lp.num_disks - 1 do
           match block_at dc m d off with
           | Some b -> fetches := (d, b) :: !fetches
           | None -> ()
         done;
         { entry_index = m; biv = dc.darr.(m).iv; fetches = List.rev !fetches; evictions = [] })
      sel
  in
  let batch_of_m m = List.find_opt (fun b -> b.entry_index = m) batches in
  let qt = Queue.create () in
  Array.iteri
    (fun m e ->
       (* Add eligible evicted blocks of this entry to Q_t. *)
       Hashtbl.iter
         (fun b amt ->
            if Rat.sign amt > 0 then begin
              let eligible =
                if b >= aug.Sync_lp.base_blocks then true (* sinit: never requested again *)
                else begin
                  let nref = next_ref_from aug b e.iv.Iv.hi in
                  if nref = max_int then true else fetched_back_selected dc sel ~after_m:m b
                end
              in
              if eligible && not (Queue.fold (fun acc x -> acc || x = b) false qt) then
                Queue.add b qt
            end)
         e.evict;
       (* If this entry is selected, consume up to #real-fetches evictions. *)
       if List.mem m sel_set then begin
         match batch_of_m m with
         | None -> ()
         | Some batch ->
           let real_fetches =
             List.length (List.filter (fun (_, b) -> not (is_junk aug b)) batch.fetches)
           in
           let take = Stdlib.min real_fetches (Queue.length qt) in
           for _ = 1 to take do
             batch.evictions <- Queue.pop qt :: batch.evictions
           done;
           batch.evictions <- List.rev batch.evictions
       end)
    dc.darr;
  batches

(* ------------------------------------------------------------------ *)
(* 4. Emit an executor schedule. *)

(* The cache a batch finds when it starts: which base blocks are
   resident, and how many blocks. *)
type cache = {
  resident : bool array;
  mutable count : int;
}

(* Replay batches (in interval order) on the executor's timeline and
   collect their fetch operations.  The anchors and delays handed to the
   executor must match its timeline exactly, so this runs a faithful
   mini-simulation (arrival times included): a batch anchored at
   interval (lo, hi) starts at max(first time the cursor reached lo or
   later, previous batch's completion).  [fill cache ~cursor batch
   ~start] picks the batch's contents on the cache it finds, calling
   [start] once per fetch: the victim leaves the cache at once, and the
   batch's blocks arrive together F units later.  Batches are
   synchronized, so at most one is in flight at a time. *)
let replay_batches (aug : Sync_lp.augmented) ~anchor ~fill batches : Fetch_op.schedule =
  let inst = aug.Sync_lp.inst in
  let n = aug.Sync_lp.n in
  let f = inst.Instance.fetch_time in
  let cache =
    {
      resident = Array.make aug.Sync_lp.base_blocks false;
      count = List.length inst.Instance.initial_cache;
    }
  in
  List.iter
    (fun b -> if b < aug.Sync_lp.base_blocks then cache.resident.(b) <- true)
    inst.Instance.initial_cache;
  let ops = ref [] in
  let time = ref 0 in
  let cursor = ref 0 in
  let reach = Array.make (n + 1) 0 in
  let arrivals : (int list * int) option ref = ref None in
  let process_arrivals () =
    match !arrivals with
    | Some (bs, t) when t <= !time ->
      List.iter
        (fun b ->
           cache.resident.(b) <- true;
           cache.count <- cache.count + 1)
        bs;
      arrivals := None
    | _ -> ()
  in
  let step () =
    process_arrivals ();
    if !cursor < n && cache.resident.(inst.Instance.seq.(!cursor)) then begin
      incr cursor;
      incr time;
      reach.(!cursor) <- !time
    end
    else incr time
  in
  (* The current batch: its anchor, start time and blocks started. *)
  let lo = ref 0 and start_time = ref 0 and started = ref [] in
  let start ~disk ~block ~evict =
    (match evict with
     | Some e ->
       cache.resident.(e) <- false;
       cache.count <- cache.count - 1
     | None -> ());
    started := block :: !started;
    ops :=
      Fetch_op.make ~at_cursor:!lo ~delay:(!start_time - reach.(!lo)) ~disk ~block ~evict ()
      :: !ops
  in
  let disk_free = ref 0 in
  let fuel = ref (((n + List.length batches + 2) * (f + 2)) + 64) in
  let broken = ref false in
  List.iter
    (fun batch ->
       if not !broken then begin
         (* Advance until the cursor has reached the batch's anchor and the
            disks are free. *)
         lo := anchor batch;
         while (not !broken) && (!cursor < !lo || !time < !disk_free) do
           decr fuel;
           if !fuel <= 0 then broken := true else step ()
         done;
         process_arrivals ();
         if not !broken then begin
           start_time := !time;
           started := [];
           fill cache ~cursor:!cursor batch ~start;
           if !started <> [] then begin
             disk_free := !start_time + f;
             arrivals := Some (!started, !start_time + f)
           end
         end
       end)
    batches;
  List.rev !ops

(* The paper-faithful contents: each batch's offset-sampled fetches, paired
   in order with its Q_t evictions. *)
let emit (aug : Sync_lp.augmented) (batches : batch list) : Fetch_op.schedule =
  let base = aug.Sync_lp.base_blocks in
  replay_batches aug batches
    ~anchor:(fun batch -> batch.biv.Iv.lo)
    ~fill:(fun cache ~cursor:_ batch ~start ->
        (* Real fetches only; drop junk and fetches of cached blocks (the
           latter can arise from skipped normalization swaps). *)
        let fetches =
          List.filter
            (fun (_, b) -> (not (is_junk aug b)) && b < base && not cache.resident.(b))
            batch.fetches
        in
        let evictions =
          ref (List.filter (fun b -> b < base && cache.resident.(b)) batch.evictions)
        in
        List.iter
          (fun (disk, block) ->
             let evict =
               match !evictions with
               | e :: rest ->
                 evictions := rest;
                 Some e
               | [] -> None
             in
             start ~disk ~block ~evict)
          fetches)

(* ------------------------------------------------------------------ *)
(* Greedy-content rounding: keep only the *skeleton* of a selection (which
   intervals host synchronized batches, in order) and derive each batch's
   fetches and evictions constructively with the paper's normalization
   rules used as an algorithm: per disk, fetch the earliest-next-referenced
   missing block (property 1); evict the furthest-next-referenced cached
   block whose next reference is after the fetched block's miss (property
   2), falling back to an extra cache slot when no safe victim exists.

   This is the robust fallback between the paper-faithful offset sampling
   (which needs fetch-mass continuity that window-restricted normalization
   cannot always restore) and the plain greedy baseline: it preserves the
   LP's choice of WHERE to place batches, which is where the optimality
   lives. *)
let emit_greedy (aug : Sync_lp.augmented) (sel_ivs : Iv.t list) : Fetch_op.schedule =
  let inst = aug.Sync_lp.inst in
  let n = aug.Sync_lp.n in
  let nb = aug.Sync_lp.base_blocks in
  let capacity = inst.Instance.cache_size + (2 * (inst.Instance.num_disks - 1)) in
  let nr = Next_ref.build inst.Instance.seq ~num_blocks:nb in
  replay_batches aug sel_ivs
    ~anchor:(fun (iv : Iv.t) -> iv.Iv.lo)
    ~fill:(fun cache ~cursor _ ~start ->
        let in_flight = ref 0 in
        for disk = 0 to inst.Instance.num_disks - 1 do
          (* Earliest-referenced missing block on this disk (a block has
             one home disk, so no earlier disk of this batch fetched it). *)
          let rec scan i =
            if i >= n then None
            else begin
              let b = inst.Instance.seq.(i) in
              if (not cache.resident.(b)) && inst.Instance.disk_of.(b) = disk then Some (i, b)
              else scan (i + 1)
            end
          in
          match scan cursor with
          | None -> ()
          | Some (p, b) ->
            (* Furthest-next-referenced safe victim. *)
            let victim = ref (-1) in
            let victim_next = ref (-1) in
            for e = 0 to nb - 1 do
              if cache.resident.(e) then begin
                let nx = Next_ref.next_at_or_after nr e cursor in
                if nx > !victim_next then begin
                  victim_next := nx;
                  victim := e
                end
              end
            done;
            if !victim >= 0 && !victim_next > p then begin
              incr in_flight;
              start ~disk ~block:b ~evict:(Some !victim)
            end
            else if cache.count + !in_flight + 1 <= capacity then begin
              incr in_flight;
              start ~disk ~block:b ~evict:None
            end
            (* Otherwise no safe victim and no spare capacity: skip the
               fetch. *)
        done)

(* ------------------------------------------------------------------ *)
(* Top level. *)

type result = {
  schedule : Fetch_op.schedule;
  stats : Simulate.stats;
  lp_value : Rat.t;
  nominal_stall : int;
  laminar : bool;
  used_fallback : bool;
  candidates_tried : int;
  extra_slots_allowed : int;
}

(* Registry handles: the result record's ad-hoc reporting fields
   ([laminar], [candidates_tried], [used_fallback]) also flow into the
   global registry so sweeps can aggregate them without threading records
   around. *)
let m_solves = Telemetry.counter "rounding.solves"
let m_non_laminar = Telemetry.counter "rounding.non_laminar"
let m_fallbacks = Telemetry.counter "rounding.fallbacks"
let m_candidates = Telemetry.histogram "rounding.candidates_tried"
let m_stall_hist = Telemetry.histogram "rounding.stall_time"

let report (r : result) : result =
  if Telemetry.enabled () then begin
    Telemetry.incr m_solves;
    if not r.laminar then Telemetry.incr m_non_laminar;
    if r.used_fallback then Telemetry.incr m_fallbacks;
    Telemetry.observe_int m_candidates r.candidates_tried;
    Telemetry.observe_int m_stall_hist r.stats.Simulate.stall_time
  end;
  r

let solve ?(solver = Revised.solve_lp) (inst : Instance.t) : result =
  let extra = 2 * (inst.Instance.num_disks - 1) in
  (* The always-valid greedy baseline, returned with [used_fallback]. *)
  let greedy () =
    let schedule = Parallel_greedy.aggressive_schedule inst in
    match Simulate.run ~extra_slots:extra inst schedule with
    | Ok s -> (schedule, s)
    | Error e -> Simulate.reject ~algorithm:"rounding/greedy-fallback" e
  in
  let greedy_result ~lp_value ~laminar ~tried (schedule, stats) =
    report
      { schedule;
        stats;
        lp_value;
        nominal_stall = stats.Simulate.stall_time;
        laminar;
        used_fallback = true;
        candidates_tried = tried;
        extra_slots_allowed = extra }
  in
  match Sync_lp.solve ~solver inst with
  | exception
      ( Ilp.Unbounded_relaxation _
      | Bigint.Does_not_fit _
      | Rat.Not_an_integer _ ) ->
    (* The [solver] failed in a typed, recoverable way: an ILP-backed
       solver reported an unbounded relaxation, or exact arithmetic
       overflowed a native-int conversion ([Bigint.Does_not_fit] /
       [Rat.Not_an_integer] instead of the bare [Failure] they used to
       raise).  The LP lower bound is unavailable either way, so fall
       back to the greedy baseline with the trivial bound of zero. *)
    greedy_result ~lp_value:Rat.zero ~laminar:true ~tried:0 (greedy ())
  | { Sync_lp.frac; lp_value } ->
  let norm = of_fractional frac in
  eliminate_crossings norm;
  normalize_orders norm;
  let dc = decompose norm in
  let candidates =
    candidate_ts dc
    |> List.map (fun t ->
        let sel = selection dc t in
        (nominal_stall dc sel, t, sel))
    |> List.sort compare
  in
  let tried = ref 0 in
  let validate schedule nominal =
    match Simulate.run ~extra_slots:extra inst schedule with
    | Ok stats -> Some (schedule, stats, nominal)
    | Error _ -> None
  in
  let attempt (nominal, _t, sel) =
    incr tried;
    (* Primary: the paper-faithful offset-sampled contents. *)
    let batches = assign_evictions dc sel in
    let primary = validate (emit dc.dnorm.aug batches) nominal in
    (* Secondary: same batch skeleton, greedy contents. *)
    let skeleton = List.map (fun (m, _) -> dc.darr.(m).iv) sel in
    let secondary = validate (emit_greedy dc.dnorm.aug skeleton) nominal in
    match (primary, secondary) with
    | Some ((_, s1, _) as r1), Some ((_, s2, _) as r2) ->
      Some (if s1.Simulate.stall_time <= s2.Simulate.stall_time then r1 else r2)
    | (Some _ as r), None | None, (Some _ as r) -> r
    | None, None -> None
  in
  (* Evaluate every candidate offset and keep the best *realized* stall:
     when normalization had to skip swaps (non-laminar leftovers), the
     nominal stall of a selection can deviate from what the schedule
     actually incurs, so the executor is the judge. *)
  let best_of cands =
    List.fold_left
      (fun best c ->
         match attempt c with
         | None -> best
         | Some ((_, stats, _) as r) ->
           (match best with
            | Some (_, best_stats, _)
              when best_stats.Simulate.stall_time <= stats.Simulate.stall_time ->
              best
            | _ -> Some r))
      None cands
  in
  match best_of candidates with
  | Some (schedule, stats, nominal) ->
    (* The offset sampling is heuristic in corners (tie-breaking inside
       batches, non-laminar leftovers), so its realized stall can trail
       the plain greedy baseline; the executor is the judge, and the
       better of the two is returned. *)
    let ((_, greedy_stats) as baseline) = greedy () in
    if greedy_stats.Simulate.stall_time < stats.Simulate.stall_time then
      greedy_result ~lp_value ~laminar:norm.laminar ~tried:!tried baseline
    else
      report
        { schedule;
          stats;
          lp_value;
          nominal_stall = nominal;
          laminar = norm.laminar;
          used_fallback = false;
          candidates_tried = !tried;
          extra_slots_allowed = extra }
  | None ->
    (* Last resort: greedy baseline (always valid). *)
    greedy_result ~lp_value ~laminar:norm.laminar ~tried:!tried (greedy ())

let stall_time ?solver inst = (solve ?solver inst).stats.Simulate.stall_time
