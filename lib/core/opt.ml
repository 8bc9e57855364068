(* Pruned branch-and-bound engine for the exact optima.  See opt.mli for
   the pruning rules and their soundness arguments.

   The single-disk engine searches the greedy-content state space
   (states are (cursor, cache mask); fetches target the next missing
   block and start at decision points), either with the
   furthest-next-reference eviction fixed (the Section 3 normalization)
   or branching over every eviction (the free-eviction validation mode).
   The parallel engine searches the full timeline state space (cursor,
   cache mask, per-disk in-flight fetch).  Both are Dijkstra over stall
   cost - 0/1 per time step in the parallel engine, 0..F per fetch in
   the single-disk ones - run on a monotone bucket queue and pruned by
   incumbent + admissible lower bound + cache-mask dominance. *)

let max_blocks = Bits.max_mask_bits

let m_expanded = Telemetry.counter "opt.nodes_expanded"
let m_pruned = Telemetry.counter "opt.nodes_pruned"
let m_dominated = Telemetry.counter "opt.nodes_dominated"
let m_deduped = Telemetry.counter "opt.nodes_deduped"

type stats = {
  expanded : int;
  pruned : int;
  dominated : int;
  deduped : int;
  incumbent_stall : int option;
  improved : bool;
}

type failure =
  | Budget_exhausted of { budget : int; expanded : int }
  | Infeasible

exception Solver_failure of { solver : string; failure : failure }

let failure_to_string = function
  | Budget_exhausted { budget; expanded } ->
    Printf.sprintf "node budget exhausted (%d expanded, budget %d)" expanded budget
  | Infeasible -> "no feasible schedule in the search space"

let () =
  Printexc.register_printer (function
    | Solver_failure { solver; failure } ->
      Some (Printf.sprintf "%s: %s" solver (failure_to_string failure))
    | _ -> None)

let fail solver failure = raise (Solver_failure { solver; failure })

let check_blocks solver num_blocks =
  if num_blocks > max_blocks then
    Instance.invalidf "%s: %d blocks exceed the %d-block limit" solver num_blocks max_blocks

type outcome = {
  stall : int;
  schedule : Fetch_op.schedule option;
  stats : stats;
}

(* Serve forward while a fetch is in flight: from cursor [c] with cache
   [mask], the fetch completes after [f] time units; returns the cursor
   after those units and the stall incurred. *)
let roll_forward (inst : Instance.t) ~c ~mask ~f =
  let n = Instance.length inst in
  let seq = inst.Instance.seq in
  let stall = ref 0 in
  let c = ref c in
  for _ = 1 to f do
    if !c < n && Bits.mem mask seq.(!c) then incr c else if !c < n then incr stall
  done;
  (!c, !stall)

(* Mutable tallies shared by both engines; snapshotted into [stats] and
   the telemetry counters at the end of a solve. *)
type tally = {
  mutable t_expanded : int;
  mutable t_pruned : int;
  mutable t_dominated : int;
  mutable t_deduped : int;
}

let fresh_tally () = { t_expanded = 0; t_pruned = 0; t_dominated = 0; t_deduped = 0 }

let finish_stats t ~ub ~improved =
  if Telemetry.enabled () then begin
    Telemetry.add m_expanded t.t_expanded;
    Telemetry.add m_pruned t.t_pruned;
    Telemetry.add m_dominated t.t_dominated;
    Telemetry.add m_deduped t.t_deduped
  end;
  {
    expanded = t.t_expanded;
    pruned = t.t_pruned;
    dominated = t.t_dominated;
    deduped = t.t_deduped;
    incumbent_stall = (if ub = max_int then None else Some ub);
    improved;
  }

(* Settled states kept for the dominance check are capped per anchor
   (cursor, or cursor + in-flight code): the check stays sound when the
   list is incomplete, so the cap bounds the per-pop scan cost. *)
let dominance_cap = 96

(* ------------------------------------------------------------------ *)
(* Single-disk engine. *)

(* Search edges are whole fetches: from a state (c, mask) the engine
   commits to the next fetch directly - start position j in [c, p]
   (p = next missing request) plus the eviction - instead of stepping
   through the serve chain one request at a time.  This is lossless:
   for a fixed eviction the earliest legal start dominates every later
   one (its completion state serve-connects to theirs at zero cost), so
   only one successor per distinct eviction candidate is generated and
   the explored graph shrinks from one node per served request to one
   per fetch decision.  An edge is encoded as the single int
   [ev * (n + 1) + j] where [ev] = 0 keeps a free slot and [e + 1]
   evicts block [e]; all codes are >= 0, so the root marker below
   cannot collide. *)
let via_root = -3

(* Open-addressing state table keyed by (cursor, cache mask), linear
   probing over parallel int arrays.  The generic [Hashtbl] costs a C
   hashing call plus a bucket allocation per operation, which dominated
   small solves (the bench fixtures expand only a few hundred nodes);
   here every probe is a handful of int compares.  Slot layout: [kc] is
   the cursor (-1 = empty), [km] the mask, [kd] the best known stall,
   [kpc]/[kpm]/[kvia] the parent edge for witness reconstruction. *)
type stab = {
  mutable cap : int;  (* power of two *)
  mutable kc : int array;
  mutable km : int array;
  mutable kd : int array;
  mutable kpc : int array;
  mutable kpm : int array;
  mutable kvia : int array;
  mutable entries : int;
}

let stab_create () =
  let cap = 256 in
  {
    cap;
    kc = Array.make cap (-1);
    km = Array.make cap 0;
    kd = Array.make cap 0;
    kpc = Array.make cap 0;
    kpm = Array.make cap 0;
    kvia = Array.make cap 0;
    entries = 0;
  }

(* Clearing only [kc] suffices: the other columns are written before
   they are read on every insert.  A table left huge by one solve is
   dropped rather than memset on every later (possibly tiny) call. *)
let stab_reset t =
  if t.cap > 4096 then begin
    t.cap <- 256;
    t.kc <- Array.make 256 (-1);
    t.km <- Array.make 256 0;
    t.kd <- Array.make 256 0;
    t.kpc <- Array.make 256 0;
    t.kpm <- Array.make 256 0;
    t.kvia <- Array.make 256 0
  end
  else Array.fill t.kc 0 t.cap (-1);
  t.entries <- 0

(* Slot holding (c, mask), or the empty slot where it would insert. *)
(* A while loop, not an inner [let rec]: classic-mode ocamlopt
   allocates a closure per call for the latter, which at ~160 probes
   per small solve was the engine's largest allocation source. *)
let stab_find t c mask =
  let m = t.cap - 1 in
  let kc = t.kc and km = t.km in
  let h = ref (((mask * 0x9E3779B1) lxor (c * 0x61C88647)) land m) in
  let found = ref (-1) in
  while !found < 0 do
    let c' = Array.unsafe_get kc !h in
    if c' < 0 || (c' = c && Array.unsafe_get km !h = mask) then found := !h
    else h := (!h + 1) land m
  done;
  !found

let stab_grow t =
  let ocap = t.cap in
  let okc = t.kc and okm = t.km and okd = t.kd in
  let okpc = t.kpc and okpm = t.kpm and okvia = t.kvia in
  t.cap <- ocap * 2;
  t.kc <- Array.make t.cap (-1);
  t.km <- Array.make t.cap 0;
  t.kd <- Array.make t.cap 0;
  t.kpc <- Array.make t.cap 0;
  t.kpm <- Array.make t.cap 0;
  t.kvia <- Array.make t.cap 0;
  for i = 0 to ocap - 1 do
    let c = okc.(i) in
    if c >= 0 then begin
      let s = stab_find t c okm.(i) in
      t.kc.(s) <- c;
      t.km.(s) <- okm.(i);
      t.kd.(s) <- okd.(i);
      t.kpc.(s) <- okpc.(i);
      t.kpm.(s) <- okpm.(i);
      t.kvia.(s) <- okvia.(i)
    end
  done

(* Superset scan for the dominance check, closure-free (a per-pop
   [List.exists] closure shows up at these solve sizes).  A settled
   state dominates only if it was reached with no more stall: under the
   A* pop order (by stall + lower bound) an earlier pop does not imply
   a smaller stall, so the stall is stored with the mask. *)
let rec dominated_by settled mask g =
  match settled with
  | [] -> false
  | (m', g') :: tl ->
    (g' <= g && m' land mask = mask && m' <> mask) || dominated_by tl mask g

(* Monotone bucket frontier specialized to (cursor, mask, stall) int
   triples stored in flat per-priority stacks, so pushes and pops
   allocate nothing (the generic [Bucketq] costs a closure-sized heap
   cell per entry plus an option pair per pop). *)
type ipq = {
  mutable qb : int array array;  (* per-priority triple stack *)
  mutable qn : int array;  (* ints used in each stack *)
  mutable qcursor : int;  (* no bucket below this is occupied *)
  mutable qcount : int;  (* triples across all buckets *)
}

let ipq_create () = { qb = Array.make 64 [||]; qn = Array.make 64 0; qcursor = 0; qcount = 0 }

let ipq_reset q =
  if Array.length q.qn > 4096 then begin
    q.qb <- Array.make 64 [||];
    q.qn <- Array.make 64 0
  end
  else Array.fill q.qn 0 (Array.length q.qn) 0;
  q.qcursor <- 0;
  q.qcount <- 0

let ipq_push q prio c mask g =
  if prio >= Array.length q.qn then begin
    let len = ref (Array.length q.qn) in
    while prio >= !len do
      len := !len * 2
    done;
    let qb = Array.make !len [||] and qn = Array.make !len 0 in
    Array.blit q.qb 0 qb 0 (Array.length q.qb);
    Array.blit q.qn 0 qn 0 (Array.length q.qn);
    q.qb <- qb;
    q.qn <- qn
  end;
  let used = q.qn.(prio) in
  let b = q.qb.(prio) in
  let b =
    if used + 3 > Array.length b then begin
      let b' = Array.make (max 24 (2 * Array.length b)) 0 in
      Array.blit b 0 b' 0 used;
      q.qb.(prio) <- b';
      b'
    end
    else b
  in
  b.(used) <- c;
  b.(used + 1) <- mask;
  b.(used + 2) <- g;
  q.qn.(prio) <- used + 3;
  q.qcount <- q.qcount + 1;
  (* The A* priority is non-decreasing along expansions (the lower
     bound is consistent), so this only defends against regressions. *)
  if prio < q.qcursor then q.qcursor <- prio

(* Pop results land in these cells; [ipq_pop] returns false on empty. *)
let pop_c = ref 0
let pop_mask = ref 0
let pop_g = ref 0
let pop_prio = ref 0

let ipq_pop q =
  if q.qcount = 0 then false
  else begin
    while q.qn.(q.qcursor) = 0 do
      q.qcursor <- q.qcursor + 1
    done;
    let used = q.qn.(q.qcursor) - 3 in
    let b = q.qb.(q.qcursor) in
    pop_prio := q.qcursor;
    pop_c := b.(used);
    pop_mask := b.(used + 1);
    pop_g := b.(used + 2);
    q.qn.(q.qcursor) <- used;
    q.qcount <- q.qcount - 1;
    true
  end

(* Reusable workspace: the per-solve tables land on the major heap when
   freshly allocated (arrays past the minor-heap size threshold), and
   the GC pacing cost of that dominated small solves.  The engine is
   not reentrant, so one shared workspace is safe; arrays grow as
   needed and are cleared only over the range a solve touches. *)
type workspace = {
  w_tbl : stab;
  w_q : ipq;
  mutable w_nxt : int array;
  mutable w_suffix : int array;
  mutable w_settled : (int * int) list array;
  mutable w_settled_len : int array;
  mutable w_nref : int array;
  mutable w_seqbit : int array;
  mutable w_reach : int array;
}

let ws =
  {
    w_tbl = stab_create ();
    w_q = ipq_create ();
    w_nxt = [||];
    w_suffix = [||];
    w_settled = [||];
    w_settled_len = [||];
    w_nref = [||];
    w_seqbit = [||];
    w_reach = [||];
  }

let solve_single ?node_budget ?(free_evict = false) (inst : Instance.t) : outcome =
  let n = Instance.length inst in
  let num_blocks = Instance.num_blocks inst in
  check_blocks "Opt.solve_single" num_blocks;
  let seq = inst.Instance.seq in
  let k = inst.Instance.cache_size in
  let f = inst.Instance.fetch_time in
  let initial_mask = Bits.of_list inst.Instance.initial_cache in
  let budget = match node_budget with None -> max_int | Some b -> b in
  (* Dense next-reference table: nxt.(c * num_blocks + b) = first
     position >= c requesting b, or n.  O(1) lookups beat the
     per-query binary search of [Next_ref] in the expansion loop.
     Every cell in rows 0..n is written below, so no clearing. *)
  if Array.length ws.w_nxt < (n + 1) * num_blocks then
    ws.w_nxt <- Array.make ((n + 1) * num_blocks) 0;
  let nxt = ws.w_nxt in
  for b = 0 to num_blocks - 1 do
    nxt.((n * num_blocks) + b) <- n
  done;
  for c = n - 1 downto 0 do
    let base = c * num_blocks and base' = (c + 1) * num_blocks in
    for b = 0 to num_blocks - 1 do
      Array.unsafe_set nxt (base + b) (Array.unsafe_get nxt (base' + b))
    done;
    nxt.(base + seq.(c)) <- c
  done;
  (* suffix_mask.(c): blocks referenced at or after position c. *)
  if Array.length ws.w_suffix < n + 1 then begin
    ws.w_suffix <- Array.make (n + 1) 0;
    ws.w_seqbit <- Array.make (n + 1) 0;
    ws.w_reach <- Array.make (n + 1) 0
  end;
  if Array.length ws.w_nref < num_blocks then ws.w_nref <- Array.make num_blocks 0;
  let suffix_mask = ws.w_suffix in
  (* seqbit.(i) = 1 lsl seq.(i): the request bitmask, precomputed once
     for the many per-position membership tests below. *)
  let seqbit = ws.w_seqbit in
  suffix_mask.(n) <- 0;
  seqbit.(n) <- 0;
  for i = n - 1 downto 0 do
    let bit = 1 lsl seq.(i) in
    seqbit.(i) <- bit;
    suffix_mask.(i) <- suffix_mask.(i + 1) lor bit
  done;
  (* First missing position >= c.  Only called when the suffix is not
     covered (goal test below), so the scan terminates before [n]: if
     every seq.(i), i >= c, were cached the suffix would be covered. *)
  let next_missing mask c =
    let i = ref c in
    while mask land Array.unsafe_get seqbit !i <> 0 do
      incr i
    done;
    !i
  in
  (* Admissible lower bound on the remaining stall, the max of two
     consistent bounds (their max is consistent, so A* pop order stays
     monotone and the first goal pop is optimal):
     - global: the missing suffix blocks need [missing * F] units of
       disk work, of which at most [n - c] hide under served requests;
     - prefix: if the i-th distinct missing block is first requested at
       q_i, its fetch is the i-th of a sequential chain and completes
       no earlier than i*F from now, while the cursor reaches q_i after
       q_i - c serves: stall >= i*F - (q_i - c).  Only the first
       [lb_terms] terms are scanned; a term is positive only within
       [lb_terms * F] positions of the cursor, which caps the scan. *)
  let lb_terms = 3 in
  let lb c mask =
    if c >= n then 0
    else begin
      let missing = Bits.popcount (suffix_mask.(c) land lnot mask) in
      let h = ref ((missing * f) - (n - c)) in
      if !h < 0 then h := 0;
      let limit = min n (c + (lb_terms * f)) in
      let counted = ref 0 in
      let seen = ref mask in
      let pos = ref c in
      (* Any term found at or past [pos] is at most
         [lb_terms * f - (pos - c)]; stop once that cannot beat [h]. *)
      while !pos < limit && !counted < lb_terms && (lb_terms * f) - (!pos - c) > !h do
        let bbit = Array.unsafe_get seqbit !pos in
        if !seen land bbit = 0 then begin
          seen := !seen lor bbit;
          incr counted;
          let t = (!counted * f) - (!pos - c) in
          if t > !h then h := t
        end;
        incr pos
      done;
      !h
    end
  in
  (* Serve forward while a fetch is in flight (the local, allocation-free
     twin of [roll_forward]); results land in the two cells. *)
  let rf_c = ref 0 and rf_stall = ref 0 in
  let roll c0 mask =
    let limit = c0 + f in
    let lim = if limit > n then n else limit in
    let c = ref c0 in
    while !c < lim && mask land Array.unsafe_get seqbit !c <> 0 do
      incr c
    done;
    rf_c := !c;
    rf_stall := (if !c < n then limit - !c else 0)
  in
  (* Greedy incumbent: Aggressive rolled out in this state space (fetch
     at the first legal decision point, furthest-next-reference
     eviction).  Returns the realized stall and the edge chain for the
     witness. *)
  let rollout () =
    let edges = ref [] in
    let c = ref 0 and mask = ref initial_mask and cost = ref 0 in
    let csize = ref (Bits.popcount initial_mask) in
    let running = ref true and stuck = ref false in
    let nref = ws.w_nref in
    while !running do
      if suffix_mask.(!c) land lnot !mask = 0 then running := false
      else begin
        let p = next_missing !mask !c in
        let j, mask_f, ev =
          if !csize < k then begin
            incr csize;
            (!c, !mask, 0)
          end
          else begin
            (* Earliest start whose furthest-next-reference eviction is
               legal, via the same incremental argmax walk as the
               expansion loop; at [p] every cached block's next
               reference lies past [p], so the scan terminates. *)
            let best = ref (-1) and best_next = ref (-1) in
            let m = ref !mask in
            let base = !c * num_blocks in
            while !m <> 0 do
              let bit = !m land (- !m) in
              let b = Bits.popcount (bit - 1) in
              let nx = Array.unsafe_get nxt (base + b) in
              Array.unsafe_set nref b nx;
              if nx > !best_next then begin
                best_next := nx;
                best := b
              end;
              m := !m lxor bit
            done;
            let j = ref !c in
            while !best_next <= p && !j < p do
              let b = Array.unsafe_get seq !j in
              let nx = Array.unsafe_get nxt (((!j + 1) * num_blocks) + b) in
              Array.unsafe_set nref b nx;
              if b = !best then best_next := nx
              else if nx > !best_next then begin
                best := b;
                best_next := nx
              end;
              incr j
            done;
            if !best_next <= p then (-1, 0, 0)
            else (!j, !mask land lnot (1 lsl !best), !best + 1)
          end
        in
        if j >= 0 then begin
          edges := (!c, !mask, (ev * (n + 1)) + j) :: !edges;
          roll j mask_f;
          cost := !cost + !rf_stall;
          c := !rf_c;
          mask := mask_f lor (1 lsl seq.(p))
        end
        else begin
          (* Unreachable for valid instances (at [p] the fetch is always
             legal), kept for totality. *)
          running := false;
          stuck := true
        end
      end
    done;
    if !stuck then None else Some (!cost, List.rev !edges)
  in
  (* Replay an edge chain from the root into a witness schedule, tracking
     reach times to anchor fetch delays (same accounting as the
     simulator). *)
  let replay edges =
    let ops = ref [] in
    let t = ref 0 in
    (* Reach times: every cell read below is written first by a serve or
       an in-flight roll, except the root's own position. *)
    let reach = ws.w_reach in
    reach.(0) <- 0;
    let rec go = function
      | [] -> ()
      | (c, mask, code) :: rest ->
        let j = code mod (n + 1) in
        let ev = code / (n + 1) in
        let evict = if ev = 0 then None else Some (ev - 1) in
        (* Serve forward to the fetch start (all of [c, j) is cached:
           [j] never exceeds the next missing position). *)
        let cc = ref c in
        while !cc < j do
          incr t;
          incr cc;
          reach.(!cc) <- !t
        done;
        let p = next_missing mask !cc in
        let mask_f = match evict with Some e -> mask land lnot (1 lsl e) | None -> mask in
        ops :=
          Fetch_op.make ~at_cursor:j ~delay:(!t - reach.(j)) ~block:seq.(p) ~evict ()
          :: !ops;
        for _ = 1 to f do
          if !cc < n && mask_f land seqbit.(!cc) <> 0 then begin
            incr cc;
            incr t;
            reach.(!cc) <- !t
          end
          else if !cc < n then incr t
        done;
        go rest
    in
    go edges;
    List.rev !ops
  in
  let incumbent = rollout () in
  let ub = match incumbent with Some (c, _) -> c | None -> max_int in
  let tally = fresh_tally () in
  match incumbent with
  | Some (0, edges) ->
    (* The greedy rollout is already optimal; skip the search. *)
    { stall = 0; schedule = Some (replay edges); stats = finish_stats tally ~ub ~improved:false }
  | _ ->
    stab_reset ws.w_tbl;
    let tbl = ws.w_tbl in
    if Array.length ws.w_settled < n + 1 then begin
      ws.w_settled <- Array.make (n + 1) [];
      ws.w_settled_len <- Array.make (n + 1) 0
    end
    else begin
      Array.fill ws.w_settled 0 (n + 1) [];
      Array.fill ws.w_settled_len 0 (n + 1) 0
    end;
    let settled = ws.w_settled in
    let settled_len = ws.w_settled_len in
    ipq_reset ws.w_q;
    let q = ws.w_q in
    (* A*: the frontier is keyed by stall-so-far plus the admissible
       lower bound.  The bound is consistent - across a fetch edge it
       drops by at most the stall paid (each compressed edge is a serve
       chain, which only consumes slack the bound already charged for,
       followed by one fetch) - so priorities are non-decreasing along
       expansions (the bucket cursor never moves back) and the first
       goal pop is still optimal. *)
    let push ~pc ~pmask ~via ~prio g c mask =
      let s = stab_find tbl c mask in
      if tbl.kc.(s) >= 0 then begin
        if tbl.kd.(s) > g then begin
          tbl.kd.(s) <- g;
          tbl.kpc.(s) <- pc;
          tbl.kpm.(s) <- pmask;
          tbl.kvia.(s) <- via;
          ipq_push q prio c mask g
        end
      end
      else begin
        tbl.kc.(s) <- c;
        tbl.km.(s) <- mask;
        tbl.kd.(s) <- g;
        tbl.kpc.(s) <- pc;
        tbl.kpm.(s) <- pmask;
        tbl.kvia.(s) <- via;
        tbl.entries <- tbl.entries + 1;
        ipq_push q prio c mask g;
        if 4 * tbl.entries > 3 * tbl.cap then stab_grow tbl
      end
    in
    (* A root bound at or above the incumbent proves the incumbent
       optimal without a search: leave the frontier empty. *)
    let h0 = lb 0 initial_mask in
    if h0 < ub then begin
      let root = stab_find tbl 0 initial_mask in
      tbl.kc.(root) <- 0;
      tbl.km.(root) <- initial_mask;
      tbl.kd.(root) <- 0;
      tbl.kvia.(root) <- via_root;
      tbl.entries <- 1;
      ipq_push q h0 0 initial_mask 0
    end;
      let goal = ref None in
    let out_of_budget = ref false in
      (* Expansion context for [try_fetch_at], hoisted so the closure is
       allocated once per solve rather than once per expansion.  The
       start position [j] varies per successor: for a fixed eviction the
       earliest legal start dominates all later ones (its completion
       state reaches theirs by free serves), so each distinct eviction
       candidate is tried once, at its earliest legal start. *)
    let x_g = ref 0 and x_c = ref 0 and x_mask = ref 0 and x_p = ref 0 in
    let try_fetch_at j mask_f ev =
      roll j mask_f;
      let c' = !rf_c in
      let mask'' = mask_f lor (1 lsl seq.(!x_p)) in
      let g' = !x_g + !rf_stall in
      let prio = g' + lb c' mask'' in
      if prio >= ub then tally.t_pruned <- tally.t_pruned + 1
      else begin
        push ~pc:!x_c ~pmask:!x_mask ~via:((ev * (n + 1)) + j) ~prio g' c' mask'';
        (* Goal cut at generation: with a consistent bound the frontier
           never holds a priority below the one being expanded, so a
           covered successor generated at that same priority cannot be
           beaten by any other path - stop without draining the
           plateau. *)
        if prio <= !pop_prio && suffix_mask.(c') land lnot mask'' = 0 then
          goal := Some (c', mask'')
      end
    in
    while !goal = None && (not !out_of_budget) && ipq_pop q do
      let c = !pop_c and mask = !pop_mask and g = !pop_g in
      if tbl.kd.(stab_find tbl c mask) <> g then tally.t_deduped <- tally.t_deduped + 1
      else if
        (* Cache-mask dominance: a state settled at this cursor with a
           superset cache reached at no more stall can replay any
           completion of this one. *)
        dominated_by settled.(c) mask g
      then tally.t_dominated <- tally.t_dominated + 1
      else if suffix_mask.(c) land lnot mask = 0 then goal := Some (c, mask)
      else begin
        let p = next_missing mask c in
        if settled_len.(c) < dominance_cap then begin
          settled.(c) <- (mask, g) :: settled.(c);
          settled_len.(c) <- settled_len.(c) + 1
        end;
        if tally.t_expanded >= budget then out_of_budget := true
        else begin
          tally.t_expanded <- tally.t_expanded + 1;
          x_g := g;
          x_c := c;
          x_mask := mask;
          x_p := p;
          if Bits.popcount mask < k then
            (* A free slot: starting at [c] with no eviction dominates
               every later start and every eviction variant at [c] does
               not exist (eviction only happens at a full cache). *)
            try_fetch_at c mask 0
          else if free_evict then begin
            (* Any eviction is legal at any start, but - unlike the
               restricted mode, whose legality rule forbids it - the
               victim [e] may be referenced inside [c, p).  Serving such
               a reference BEFORE evicting (i.e. delaying the fetch
               start past it) dodges a stall the start-at-[c] trajectory
               must pay, and the two completion states do not
               serve-connect (the chain hits the evicted block).  So the
               dominant start set per victim is [c] plus one start just
               after each in-window reference of that victim; between
               consecutive references the earliest start dominates as
               usual. *)
            let m = ref mask in
            while !m <> 0 do
              let bit = !m land (- !m) in
              try_fetch_at c (mask lxor bit) (Bits.popcount (bit - 1) + 1);
              m := !m lxor bit
            done;
            (* Every position q in [c, p) references a cached block (it
               precedes the next miss), so q + 1 is exactly the extra
               start for evicting seq.(q). *)
            for q = c to p - 1 do
              let b = Array.unsafe_get seq q in
              try_fetch_at (q + 1) (mask land lnot (1 lsl b)) (b + 1)
            done
          end
          else begin
            (* Restricted evictions: the furthest-next-reference victim
               changes as the start slides from [c] to [p]; one successor
               per distinct legal victim, at its earliest start.  At [p]
               every cached block's next reference is past [p], so at
               least one successor is always generated.  The walk is
               incremental: advancing the start past position [j] only
               moves seq.(j)'s next reference, so the victim scan runs
               over the cached blocks (collected once) instead of
               recomputing [furthest] from scratch at every start. *)
            let nref = ws.w_nref in
            let best = ref (-1) and best_next = ref (-1) in
            let m = ref mask in
            let base = c * num_blocks in
            while !m <> 0 do
              let bit = !m land (- !m) in
              let b = Bits.popcount (bit - 1) in
              let nx = Array.unsafe_get nxt (base + b) in
              Array.unsafe_set nref b nx;
              if nx > !best_next then begin
                best_next := nx;
                best := b
              end;
              m := !m lxor bit
            done;
            let tried = ref 0 in
            for j = c to p do
              if !best_next > p then begin
                let ebit = 1 lsl !best in
                if !tried land ebit = 0 then begin
                  tried := !tried lor ebit;
                  try_fetch_at j (mask land lnot ebit) (!best + 1)
                end
              end;
              if j < p then begin
                (* Position [j] is cached (it precedes the next miss), so
                   passing it bumps exactly its block's next reference;
                   the running argmax only moves if the bumped reference
                   beats it.  [b = best] forces a singleton cache (the
                   argmax's reference is the maximum, so if it equals [j]
                   - the minimum - every cached reference is [j], and
                   references are distinct), where the bump stays the
                   argmax by default. *)
                let b = Array.unsafe_get seq j in
                let nx = Array.unsafe_get nxt (((j + 1) * num_blocks) + b) in
                Array.unsafe_set nref b nx;
                if b = !best then best_next := nx
                else if nx > !best_next then begin
                  best := b;
                  best_next := nx
                end
              end
            done
          end
        end
      end
    done;
    if !out_of_budget then
      fail "Opt.solve_single" (Budget_exhausted { budget; expanded = tally.t_expanded })
    else begin
      match !goal with
      | Some (gc, gmask) ->
        (* First goal popped: optimal among all unpruned paths, and the
           pruned ones cost >= ub > this. *)
        let stall = tbl.kd.(stab_find tbl gc gmask) in
        let edges = ref [] in
        let c = ref gc and mask = ref gmask in
        let continue_ = ref true in
        while !continue_ do
          let s = stab_find tbl !c !mask in
          let via = tbl.kvia.(s) in
          if via = via_root then continue_ := false
          else begin
            let pc = tbl.kpc.(s) and pmask = tbl.kpm.(s) in
            edges := (pc, pmask, via) :: !edges;
            c := pc;
            mask := pmask
          end
        done;
        { stall; schedule = Some (replay !edges); stats = finish_stats tally ~ub ~improved:true }
      | None ->
        (* Every node that could have beaten the incumbent was explored
           or pruned: the incumbent is optimal. *)
        (match incumbent with
         | Some (stall, edges) ->
           { stall; schedule = Some (replay edges); stats = finish_stats tally ~ub ~improved:false }
         | None -> fail "Opt.solve_single" Infeasible)
    end

(* ------------------------------------------------------------------ *)
(* Parallel engine. *)

let solve_parallel ?node_budget ?(extra_slots = 0) (inst : Instance.t) : outcome =
  let n = Instance.length inst in
  let num_blocks = Instance.num_blocks inst in
  check_blocks "Opt.solve_parallel" num_blocks;
  let seq = inst.Instance.seq in
  let k = inst.Instance.cache_size + extra_slots in
  let f = inst.Instance.fetch_time in
  let nd = inst.Instance.num_disks in
  let disk_of = inst.Instance.disk_of in
  let initial_mask = Bits.of_list inst.Instance.initial_cache in
  let budget = match node_budget with None -> max_int | Some b -> b in
  (* Packed in-flight encoding: per disk 0 = idle, else
     1 + block * F + (remaining - 1); disks combined by radix. *)
  let disk_radix = (num_blocks * f) + 1 in
  let () =
    let rec chk acc i =
      if i >= nd then ()
      else if acc > max_int / disk_radix then
        Instance.invalidf
          "Opt.solve_parallel: packed (cursor, cache, in-flight) state encoding exceeds 62 bits"
      else chk (acc * disk_radix) (i + 1)
    in
    chk 1 0
  in
  let encode_flights flights =
    let code = ref 0 in
    for d = nd - 1 downto 0 do
      let cd =
        match flights.(d) with None -> 0 | Some (b, rem) -> 1 + (b * f) + (rem - 1)
      in
      code := (!code * disk_radix) + cd
    done;
    !code
  in
  let flight_mask flights =
    Array.fold_left
      (fun a fl -> match fl with Some (b, _) -> Bits.add a b | None -> a)
      0 flights
  in
  (* Per-disk suffix masks for the lower bound. *)
  let suffix_disk = Array.make_matrix nd (n + 1) 0 in
  for i = n - 1 downto 0 do
    for d = 0 to nd - 1 do
      suffix_disk.(d).(i) <-
        (if disk_of.(seq.(i)) = d then Bits.add suffix_disk.(d).(i + 1) seq.(i)
         else suffix_disk.(d).(i))
    done
  done;
  (* Admissible lower bound: disk d must still deliver its missing suffix
     blocks (F each, after finishing its current fetch); work beyond the
     [n - c] remaining service units is stall. *)
  let lb c mask flights =
    if c >= n then 0
    else begin
      let ifm = flight_mask flights in
      let best = ref 0 in
      for d = 0 to nd - 1 do
        let missing = Bits.popcount (suffix_disk.(d).(c) land lnot mask land lnot ifm) in
        if missing > 0 then begin
          let rem = match flights.(d) with None -> 0 | Some (_, r) -> r in
          let work = rem + (missing * f) - (n - c) in
          if work > !best then best := work
        end
      done;
      !best
    end
  in
  (* Earliest-referenced missing block homed on [disk] (the per-disk
     fetch-order normalization). *)
  let next_missing_on_disk mask ifm disk c =
    let rec scan i =
      if i >= n then None
      else begin
        let b = seq.(i) in
        if (not (Bits.mem mask b)) && (not (Bits.mem ifm b)) && disk_of.(b) = disk then Some b
        else scan (i + 1)
      end
    in
    scan c
  in
  (* Incumbent: the greedy parallel schedule's realized stall under the
     same extra capacity. *)
  let ub =
    match Simulate.run ~extra_slots inst (Parallel_greedy.aggressive_schedule inst) with
    | Ok s -> s.Simulate.stall_time
    | Error _ -> max_int
  in
  let tally = fresh_tally () in
  if ub = 0 then { stall = 0; schedule = None; stats = finish_stats tally ~ub ~improved:false }
  else begin
    let dist : (int * int, int) Hashtbl.t array =
      Array.init (n + 1) (fun _ -> Hashtbl.create 32)
    in
    (* flights are stored alongside the packed code so expansion never
       decodes. *)
    let q = Bucketq.create ~hint:(if ub = max_int then 64 else ub + 1) () in
    let settled : (int, int list ref) Hashtbl.t array =
      Array.init (n + 1) (fun _ -> Hashtbl.create 8)
    in
    let push d c mask flights fcode =
      let key = (mask, fcode) in
      match Hashtbl.find_opt dist.(c) key with
      | Some d' when d' <= d -> ()
      | _ ->
        Hashtbl.replace dist.(c) key d;
        Bucketq.push q ~prio:d (c, mask, flights, fcode)
    in
    let start_flights = Array.make nd None in
    Hashtbl.replace dist.(0) (initial_mask, 0) 0;
    Bucketq.push q ~prio:0 (0, initial_mask, start_flights, 0);
    let answer = ref None in
    let out_of_budget = ref false in
    while !answer = None && (not !out_of_budget) && not (Bucketq.is_empty q) do
      match Bucketq.pop q with
      | None -> ()
      | Some (d, (c, mask, flights, fcode)) ->
        if Hashtbl.find_opt dist.(c) (mask, fcode) <> Some d then
          tally.t_deduped <- tally.t_deduped + 1
        else if c >= n then answer := Some d
        else begin
          let dom =
            match Hashtbl.find_opt settled.(c) fcode with
            | Some masks -> List.exists (fun m' -> m' <> mask && Bits.subset mask m') !masks
            | None -> false
          in
          if dom then tally.t_dominated <- tally.t_dominated + 1
          else begin
            (match Hashtbl.find_opt settled.(c) fcode with
             | Some masks -> if List.length !masks < dominance_cap then masks := mask :: !masks
             | None -> Hashtbl.replace settled.(c) fcode (ref [ mask ]));
            if tally.t_expanded >= budget then out_of_budget := true
            else begin
              tally.t_expanded <- tally.t_expanded + 1;
              let ifm = flight_mask flights in
              (* Enumerate fetch-start combinations for idle disks: each
                 independently keeps idle or starts its next missing
                 block with any eviction option (or a free slot). *)
              let options_for_disk disk =
                match flights.(disk) with
                | Some _ -> [ `Keep ]
                | None ->
                  (match next_missing_on_disk mask ifm disk c with
                   | None -> [ `Keep ]
                   | Some b ->
                     let evictions = ref [] in
                     for e = 0 to num_blocks - 1 do
                       if Bits.mem mask e then evictions := `Start (b, Some e) :: !evictions
                     done;
                     `Keep :: `Start (b, None) :: !evictions)
              in
              let rec combos disk acc =
                if disk >= nd then [ acc ]
                else
                  List.concat_map
                    (fun opt -> combos (disk + 1) ((disk, opt) :: acc))
                    (options_for_disk disk)
              in
              List.iter
                (fun combo ->
                   let mask' = ref mask in
                   let flights' = Array.copy flights in
                   let in_flight_cnt =
                     ref (Array.fold_left (fun a x -> if x = None then a else a + 1) 0 flights)
                   in
                   let ok = ref true in
                   List.iter
                     (fun (disk, opt) ->
                        match opt with
                        | `Keep -> ()
                        | `Start (b, evict) ->
                          (match evict with
                           | Some e ->
                             if not (Bits.mem !mask' e) then ok := false
                             else mask' := Bits.remove !mask' e
                           | None -> ());
                          if !ok then begin
                            flights'.(disk) <- Some (b, f);
                            incr in_flight_cnt
                          end)
                     combo;
                   if !ok && Bits.popcount !mask' + !in_flight_cnt <= k then begin
                     (* One time unit elapses: serve if cached, else stall
                        (never into a dead state with an empty pipeline). *)
                     let served = Bits.mem !mask' seq.(c) in
                     let c' = if served then c + 1 else c in
                     let cost = if served then 0 else 1 in
                     if served || !in_flight_cnt > 0 then begin
                       let mask'' = ref !mask' in
                       let flights'' =
                         Array.map
                           (function
                             | Some (b, 1) ->
                               mask'' := Bits.add !mask'' b;
                               None
                             | Some (b, r) -> Some (b, r - 1)
                             | None -> None)
                           flights'
                       in
                       let d' = d + cost in
                       if d' + lb c' !mask'' flights'' >= ub then
                         tally.t_pruned <- tally.t_pruned + 1
                       else push d' c' !mask'' flights'' (encode_flights flights'')
                     end
                   end)
                (combos 0 [])
            end
          end
        end
    done;
    if !out_of_budget then
      fail "Opt.solve_parallel" (Budget_exhausted { budget; expanded = tally.t_expanded })
    else begin
      match !answer with
      | Some stall -> { stall; schedule = None; stats = finish_stats tally ~ub ~improved:true }
      | None ->
        if ub < max_int then
          { stall = ub; schedule = None; stats = finish_stats tally ~ub ~improved:false }
        else fail "Opt.solve_parallel" Infeasible
    end
  end

let solve ?node_budget (inst : Instance.t) =
  if inst.Instance.num_disks = 1 then solve_single ?node_budget inst
  else solve_parallel ?node_budget inst
