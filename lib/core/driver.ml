(* The timeline engine: one instant loop for every scheduler, batch or
   streaming.

   Each instant the loop completes due fetches, lets the decision rule
   act, then serves the cursor's request or stalls.  The engine owns the
   clock, cursor, cache and per-disk in-flight state and records every
   initiated fetch as a {!Fetch_op.t} (anchored to the cursor with the
   right delay), so an algorithm only has to express its decision rule.
   Schedules are replayed through {!Simulate.run} by callers, which keeps
   a single source of truth for timing semantics.

   The entry point chooses the next-reference index; nothing else does:

   - [run inst] (batch) indexes the whole trace with {!Next_ref}, whose
     [next_after_same] re-keys a served block in O(1).
   - [run_stream] (streaming, behind {!Stream.run}) pulls requests from a
     source into a sliding {!Win_ref} of [window] requests past the
     cursor; knowledge stops at the window edge ({!Win_ref.horizon}
     beyond it).  It also turns on the parts only a stream has: the
     observer hooks ([on_find] / [on_insert] / [on_evict]), a demand
     fetch that covers a cursor miss the rule left open, and the window
     refill after each serve.  Block ids are unbounded in a stream, so
     the per-block arrays grow by doubling as larger ids arrive.

   Rules shared by both modes (Aggressive, Delay(d), the streaming
   policies) read the trace only through [request_at], [next_ref] and
   [prev_ref], which never see past the known requests.

   The engine answers every query in O(log k) amortized, for
   O((n + fetches) log k) per run:

   - [next_missing] keeps a monotone frontier (global and per disk):
     every position in [cursor, frontier) is known non-missing, so scans
     resume at the frontier instead of the cursor.  The only transition
     that makes a position missing again is an eviction, which clamps
     the frontiers to the evicted block's next reference.
   - [furthest_cached] keeps a lazy-invalidation max-heap
     ({!Evict_heap}) with one live entry per resident block, keyed by
     the block's next reference measured from the cursor.  The key
     invariant "live key = next reference at or after the cursor" is
     maintained by re-keying the served block once per serve (and, in a
     stream, a resident block whose first in-window reference just
     arrived).  Queries [~from] beyond the cursor additionally scan the
     <= from - cursor window positions whose blocks' heap keys may lag
     (Delay's d' window).
   - the run loop skips uniform instants: serve runs while every disk is
     busy (the decide contract below makes the callback a no-op there)
     execute in a tight loop, and stall runs where the last decide call
     was a no-op jump straight to the next fetch completion.  In a
     stream each skipped serve still fires [on_find] for its request
     first and refills the window after.

   Queries [~from] outside the frontier or below the cursor fall back
   to a plain scan; those answers define the public queries.  The
   stepping functions ([create], [tick_completions], [advance],
   [finished]) let a caller run its own loop: the checking oracle in
   lib/check (Ck_seed) steps one instant at a time, with no event
   skipping, and compares every frontier and heap answer with a fresh
   scan.

   The decide contract (all in-tree rules satisfy it, and the
   equivalence suite in test/test_driver_equiv.ml checks them all): a
   decide callback - a stream policy's [prefetch] included - must (a) do
   nothing when every disk is busy, and (b) depend on the engine state
   only through the cursor, cache, in-flight and its own queue state -
   never on the raw clock - so that repeating it at an identical state
   is a no-op.  Callbacks that need recency information derive it from
   [prev_ref] rather than by accumulating per-instant writes. *)

type t = {
  index : index;
  k : int;
  fetch_time : int;
  num_disks : int;
  disk_of : int array;  (* home disk per block; empty in a stream (one disk) *)
  record : bool;  (* keep the Fetch_op list *)
  mutable limit : int;  (* one past the last known request: n, or the window edge *)
  mutable exhausted : bool;  (* [limit] is final *)
  mutable max_block_seen : int;
  mutable time : int;
  mutable cursor : int;
  mutable reach_cur : int;  (* first instant the cursor reached its position *)
  (* Per-block arrays, grown together by [ensure_cap]. *)
  mutable in_cache : bool array;
  mutable in_flight_blocks : bool array;  (* membership mirror of [fly_block] *)
  mutable resident : int array;  (* dense resident-block set, for O(k) cache_list *)
  mutable resident_pos : int array;  (* block -> index in [resident], or -1 *)
  heap : Evict_heap.t;  (* live key = next ref of each resident block at or after the cursor *)
  mutable cache_count : int;
  fly_block : int array;  (* per disk: block in flight, or -1 *)
  fly_end : int array;  (* per disk: completion instant *)
  mutable in_flight_count : int;
  mutable ops : Fetch_op.t array;  (* the fetch log: [ops.(0 .. op_count - 1)] *)
  mutable op_count : int;
  mutable stall : int;
  mutable fetch_count : int;
  missing_from : int array;
      (* per disk, then one slot for all disks: [cursor, missing_from.(s))
         holds no missing position of slot s *)
  (* Observability: cheap local aggregates flushed to telemetry counters
     once per run (plain int increments, never a registry lookup on the
     hot path), plus stall-interval tracking for the stall histogram and
     the provenance event log. *)
  mutable frontier_advances : int;
  mutable frontier_clamps : int;
  mutable clock_skips : int;
  mutable clock_units_skipped : int;
  mutable stall_from : int;  (* start of the open stall interval, or -1 *)
  track_stalls : bool;  (* interval tracking wanted (metrics or events on) *)
  stall_hist : Telemetry.histogram option;
      (* handle cached at creation: interval closes must not pay a
         registry (string-hash) lookup each, there can be one per stall
         run *)
}

and index =
  | Full of { inst : Instance.t; nr : Next_ref.t; seq : int array }
  | Win of win

and win = {
  wr : Win_ref.t;
  pull : unit -> int option;
  window : int;
  hooks : hooks;
  mutable found_upto : int;  (* positions whose on_find already fired *)
  mutable demand_fetches : int;
  mutable refills : int;
}

and hooks = {
  on_find : t -> block:int -> hit:bool -> unit;
  on_insert : t -> block:int -> unit;
  on_evict : t -> block:int -> unit;
}

(* ------------------------------------------------------------------ *)
(* Index queries: one [match] each. *)

let component d = match d.index with Full _ -> "driver" | Win _ -> "stream"

let internal_error d fmt =
  Printf.ksprintf
    (fun msg ->
       Simulate.internal_error ~component:(component d)
         "%s (t=%d r%d known [%d,%d) in flight per disk [%s])" msg d.time (d.cursor + 1) d.cursor
         d.limit
         (String.concat "; " (Array.to_list (Array.map string_of_int d.fly_block))))
    fmt

(* A stream knows only the window [cursor, limit); [Win_ref] leaves
   reads outside it unchecked. *)
let request_at d p =
  match d.index with
  | Full f -> f.seq.(p)
  | Win w ->
    if p < d.cursor || p >= d.limit then internal_error d "read of r%d outside the window" (p + 1);
    Win_ref.block_at w.wr p

let next_ref d ~block ~from =
  match d.index with
  | Full f -> Next_ref.next_at_or_after f.nr block from
  | Win w -> Win_ref.next_at_or_after w.wr block ~from

let prev_ref d ~block ~before =
  match d.index with
  | Full f -> Next_ref.prev_before f.nr block before
  | Win w -> Win_ref.prev_before w.wr block ~before

(* ------------------------------------------------------------------ *)
(* Cache state. *)

(* Cache membership changes flow through these two helpers so the heap
   and the resident set can never drift from [in_cache]. *)
let cache_add d b =
  d.in_cache.(b) <- true;
  d.resident_pos.(b) <- d.cache_count;
  d.resident.(d.cache_count) <- b;
  d.cache_count <- d.cache_count + 1;
  Evict_heap.add d.heap ~block:b ~key:(next_ref d ~block:b ~from:d.cursor)

let cache_remove d b =
  d.in_cache.(b) <- false;
  d.cache_count <- d.cache_count - 1;
  let i = d.resident_pos.(b) in
  let last = d.resident.(d.cache_count) in
  d.resident.(i) <- last;
  d.resident_pos.(last) <- i;
  d.resident_pos.(b) <- -1;
  Evict_heap.remove d.heap ~block:b

(* Grow every per-block array past [b], doubling.  Batch arrays are
   sized to the instance and never grow. *)
let ensure_cap d b =
  let cap = Array.length d.in_cache in
  if b >= cap then begin
    let cap' = Stdlib.max (2 * cap) (b + 1) in
    let grow a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    d.in_cache <- grow d.in_cache false;
    d.in_flight_blocks <- grow d.in_flight_blocks false;
    d.resident <- grow d.resident 0;
    d.resident_pos <- grow d.resident_pos (-1);
    Evict_heap.widen d.heap ~num_blocks:cap'
  end

(* Filler for the unused tail of the fetch log. *)
let no_op = Fetch_op.make ~at_cursor:0 ~block:0 ~evict:None ()

let make ~index ~k ~fetch_time ~num_disks ~disk_of ~record ~limit ~exhausted ~cap =
  { index;
    k;
    fetch_time;
    num_disks;
    disk_of;
    record;
    limit;
    exhausted;
    max_block_seen = -1;
    time = 0;
    cursor = 0;
    reach_cur = 0;
    in_cache = Array.make cap false;
    in_flight_blocks = Array.make cap false;
    resident = Array.make (Stdlib.max 1 cap) 0;
    resident_pos = Array.make cap (-1);
    heap = Evict_heap.create ~num_blocks:cap;
    cache_count = 0;
    fly_block = Array.make num_disks (-1);
    fly_end = Array.make num_disks 0;
    in_flight_count = 0;
    ops = [||];
    op_count = 0;
    stall = 0;
    fetch_count = 0;
    missing_from = Array.make (num_disks + 1) 0;
    frontier_advances = 0;
    frontier_clamps = 0;
    clock_skips = 0;
    clock_units_skipped = 0;
    stall_from = -1;
    track_stalls = Telemetry.enabled () || Event_log.enabled ();
    stall_hist =
      (if Telemetry.enabled () then
         Some
           (Telemetry.histogram
              (match index with
               | Full _ -> "driver.stall_interval"
               | Win _ -> "stream.stall_interval"))
       else None) }

let create (inst : Instance.t) : t =
  let n = Instance.length inst in
  let num_blocks = Instance.num_blocks inst in
  let d =
    make
      ~index:(Full { inst; nr = Next_ref.of_instance inst; seq = inst.Instance.seq })
      ~k:inst.Instance.cache_size ~fetch_time:inst.Instance.fetch_time
      ~num_disks:inst.Instance.num_disks ~disk_of:inst.Instance.disk_of ~record:true ~limit:n
      ~exhausted:true ~cap:num_blocks
  in
  d.max_block_seen <- num_blocks - 1;
  (* Presize the fetch log to the trace length: no rule here fetches more
     blocks than there are requests (each fetch covers a distinct missed
     request), and the log doubles if one does. *)
  d.ops <- Array.make (Stdlib.max 1 n) no_op;
  List.iter (fun b -> cache_add d b) inst.Instance.initial_cache;
  d

(* ------------------------------------------------------------------ *)
(* State queries. *)

let finished d = d.exhausted && d.cursor >= d.limit

let time d = d.time
let cursor d = d.cursor
let stall_time d = d.stall
let fetches d = d.fetch_count
let lookahead_end d = d.limit
let max_block_seen d = d.max_block_seen

let instance d =
  match d.index with
  | Full f -> f.inst
  | Win _ -> internal_error d "a streaming run has no instance"

let demand_fetches d = match d.index with Full _ -> 0 | Win w -> w.demand_fetches
let refills d = match d.index with Full _ -> 0 | Win w -> w.refills

let in_cache d b = b < Array.length d.in_cache && d.in_cache.(b)
let cache_count d = d.cache_count

(* A fetch without eviction is only legal while resident blocks plus
   in-flight reservations leave a slot free. *)
let has_free_slot d = d.cache_count + d.in_flight_count < d.k
let cache_full d = not (has_free_slot d)
let disk_busy d disk = d.fly_block.(disk) >= 0
let any_disk_busy d = d.in_flight_count > 0

let block_in_flight d b = b < Array.length d.in_flight_blocks && d.in_flight_blocks.(b)

let disk_of d b = if d.num_disks = 1 then 0 else d.disk_of.(b)

(* Blocks currently resident, as a sorted list.  O(k log k) from the
   dense resident set; ascending block-id order is part of the contract
   (Online's fold breaks score ties towards the earlier candidate). *)
let cache_list d =
  List.sort Stdlib.compare (Array.to_list (Array.sub d.resident 0 d.cache_count))

let missing_at d i =
  let b = request_at d i in
  not (d.in_cache.(b) || d.in_flight_blocks.(b))

(* First known position >= [from] whose block is neither cached nor in
   flight and lives on [slot]'s disk (any disk for slot [num_disks]), or
   -1.  A top-level loop: no closure to allocate per query. *)
let rec scan_missing d slot i =
  if i >= d.limit then -1
  else if missing_at d i && (slot = d.num_disks || disk_of d (request_at d i) = slot) then i
  else scan_missing d slot (i + 1)

(* Every position in [cursor, missing_from.(slot)) is known non-missing,
   so a query from at or before that frontier resumes the scan there and
   publishes the new frontier.  (Queries from beyond the frontier - no
   in-tree caller - scan plainly and learn nothing.) *)
let find_missing d slot from =
  let frontier = Stdlib.max d.missing_from.(slot) d.cursor in
  if from >= d.cursor && from <= frontier then begin
    let r = scan_missing d slot frontier in
    let nf = if r < 0 then d.limit else r in
    if nf > d.missing_from.(slot) then d.frontier_advances <- d.frontier_advances + 1;
    d.missing_from.(slot) <- nf;
    r
  end
  else scan_missing d slot from

let next_missing ?from d =
  find_missing d d.num_disks (match from with Some f -> f | None -> d.cursor)

let next_missing_on_disk d ~disk ~from = find_missing d disk from

(* The cached block whose next reference measured from [from] is furthest
   in the future (ties: smallest id), or -1 if the cache is empty.

   The heap top answers queries at the cursor directly.  For [from >
   cursor] (Delay's d' window) the live keys of blocks referenced inside
   [cursor, from) undershoot their true next reference measured from
   [from]; those are exactly the blocks requested at the <= from -
   cursor window positions, so a linear pass over the window re-scores
   them and the heap covers the rest (any entry with key < from belongs
   to the window, and the valid top dominates all entries with key >=
   from).  Below the cursor the keys say nothing: score every cached
   block.  The answer is the maximum of one total order, so the order in
   which candidates are scored does not matter. *)
let furthest_cached d ~from =
  let best = ref (-1) and best_next = ref (-1) in
  if from >= d.cursor then begin
    let top = Evict_heap.top d.heap in
    if top >= 0 && Evict_heap.key_of d.heap top >= from then begin
      best := top;
      best_next := Evict_heap.key_of d.heap top
    end;
    for p = d.cursor to Stdlib.min (from - 1) (d.limit - 1) do
      let b = request_at d p in
      if d.in_cache.(b) then begin
        let nx = next_ref d ~block:b ~from in
        if nx > !best_next || (nx = !best_next && b < !best) then begin
          best := b;
          best_next := nx
        end
      end
    done
  end
  else
    for b = 0 to Array.length d.in_cache - 1 do
      if d.in_cache.(b) then begin
        let nx = next_ref d ~block:b ~from in
        if nx > !best_next || (nx = !best_next && b < !best) then begin
          best := b;
          best_next := nx
        end
      end
    done;
  !best

(* ------------------------------------------------------------------ *)
(* Actions. *)

(* Initiate a fetch at the current instant (rules and the stream's
   demand path both land here). *)
let start_fetch ?(disk = 0) d ~block ~evict =
  ensure_cap d block;
  if disk_busy d disk then internal_error d "fetch of b%d on busy disk %d" block disk;
  if d.in_cache.(block) then internal_error d "fetch of b%d already resident" block;
  if d.in_flight_blocks.(block) then internal_error d "fetch of b%d already in flight" block;
  (match evict with
   | Some e ->
     if not (in_cache d e) then internal_error d "eviction of b%d which is not resident" e;
     (* The eviction re-opens e's references: clamp the missing
        frontiers back to its next one. *)
     let q = next_ref d ~block:e ~from:d.cursor in
     let all = d.num_disks in
     if q < d.missing_from.(all) then begin
       d.frontier_clamps <- d.frontier_clamps + 1;
       if Event_log.enabled () then
         Event_log.record
           (Event_log.Frontier_clamp
              { time = d.time; cursor = d.cursor; from_pos = d.missing_from.(all); to_pos = q;
                block = e });
       d.missing_from.(all) <- q
     end;
     let ed = disk_of d e in
     if q < d.missing_from.(ed) then d.missing_from.(ed) <- q;
     cache_remove d e;
     if Event_log.enabled () then begin
       (* The runner-up is whatever now tops the heap: the candidate the
          evicted block beat.  [top]'s lazy-invalidation cleanup is
          semantically transparent, so querying it here is safe. *)
       let r = Evict_heap.top d.heap in
       Event_log.record
         (Event_log.Evict
            { time = d.time; cursor = d.cursor; block = e; next_ref = q;
              runner_up = (if r < 0 then None else Some (r, Evict_heap.key_of d.heap r)) })
     end;
     (match d.index with Win w -> w.hooks.on_evict d ~block:e | Full _ -> ())
   | None ->
     if d.cache_count >= d.k then internal_error d "fetch of b%d with no free slot" block);
  if d.record then begin
    if d.op_count = Array.length d.ops then begin
      let ops = Array.make (Stdlib.max 64 (2 * d.op_count)) no_op in
      Array.blit d.ops 0 ops 0 d.op_count;
      d.ops <- ops
    end;
    d.ops.(d.op_count) <-
      { Fetch_op.at_cursor = d.cursor; delay = d.time - d.reach_cur; disk; block; evict };
    d.op_count <- d.op_count + 1
  end;
  d.fly_block.(disk) <- block;
  d.fly_end.(disk) <- d.time + d.fetch_time;
  d.in_flight_blocks.(block) <- true;
  d.in_flight_count <- d.in_flight_count + 1;
  d.fetch_count <- d.fetch_count + 1;
  if Event_log.enabled () then
    Event_log.record
      (Event_log.Fetch_issue { time = d.time; cursor = d.cursor; block; disk; evict })

(* Process fetch completions due at the current instant.  Must be called
   once per instant, before decisions. *)
let tick_completions d =
  for disk = 0 to d.num_disks - 1 do
    let b = d.fly_block.(disk) in
    if b >= 0 && d.fly_end.(disk) = d.time then begin
      d.fly_block.(disk) <- -1;
      d.in_flight_count <- d.in_flight_count - 1;
      d.in_flight_blocks.(b) <- false;
      cache_add d b;
      if Event_log.enabled () then
        Event_log.record (Event_log.Fetch_complete { time = d.time; block = b; disk });
      match d.index with Win w -> w.hooks.on_insert d ~block:b | Full _ -> ()
    end
  done

(* The serve that ends a stall interval attributes it to the block the
   executor was waiting on (the cursor's block) and reports it to the
   stall histogram and the provenance log.  Cold path: only reached when
   interval tracking is on and an interval is open. *)
let close_stall d =
  let b = request_at d d.cursor in
  (match d.stall_hist with
   | Some h -> Telemetry.observe_int h (d.time - d.stall_from)
   | None -> ());
  if Event_log.enabled () then
    Event_log.record
      (Event_log.Stall_interval
         { from_time = d.stall_from; until_time = d.time; cursor = d.cursor; block = b });
  d.stall_from <- -1

(* One serve step: the cursor's block is resident.  Re-keys the served
   block so its live heap key stays "next reference at or after the
   cursor": an O(1) [next_same] lookup on the full trace; in a stream,
   after the window forgets the served position. *)
let serve_one d =
  if d.stall_from >= 0 then close_stall d;
  (match d.index with
   | Full f ->
     Evict_heap.add d.heap ~block:f.seq.(d.cursor) ~key:(Next_ref.next_after_same f.nr d.cursor);
     d.cursor <- d.cursor + 1
   | Win w ->
     let b = Win_ref.block_at w.wr d.cursor in
     d.cursor <- d.cursor + 1;
     Win_ref.drop_below w.wr d.cursor;
     Evict_heap.add d.heap ~block:b ~key:(Win_ref.next_at_or_after w.wr b ~from:d.cursor));
  d.time <- d.time + 1;
  d.reach_cur <- d.time

(* Serve the next request if its block is resident, otherwise record one
   stall unit; advances the clock either way. *)
let advance d =
  let b = request_at d d.cursor in
  if d.in_cache.(b) then serve_one d
  else begin
    if d.in_flight_count = 0 then
      internal_error d "stall awaiting b%d with nothing in flight (rule deadlock)" b;
    if d.track_stalls && d.stall_from < 0 then d.stall_from <- d.time;
    d.stall <- d.stall + 1;
    d.time <- d.time + 1
  end

let schedule d =
  let l = ref [] in
  for i = d.op_count - 1 downto 0 do
    l := d.ops.(i) :: !l
  done;
  !l

(* Earliest in-flight completion, or max_int. *)
let next_completion d =
  let ne = ref max_int in
  for disk = 0 to d.num_disks - 1 do
    if d.fly_block.(disk) >= 0 && d.fly_end.(disk) < !ne then ne := d.fly_end.(disk)
  done;
  !ne

(* ------------------------------------------------------------------ *)
(* Stream-only steps: no-ops on the full trace. *)

(* Pull requests until the window holds [window] positions past the
   cursor or the source ends. *)
let refill d =
  match d.index with
  | Full _ -> ()
  | Win w ->
    let added = ref 0 in
    while (not d.exhausted) && d.limit - d.cursor < w.window do
      match w.pull () with
      | Some b ->
        if b < 0 then Instance.invalidf "stream: negative block id %d in source" b;
        let p = d.limit in
        Win_ref.push w.wr b;
        d.limit <- p + 1;
        if b > d.max_block_seen then d.max_block_seen <- b;
        ensure_cap d b;
        (* If a resident block just gained its first in-window reference,
           its eviction key drops from horizon to this position. *)
        if Evict_heap.key_of d.heap b = Win_ref.horizon then Evict_heap.add d.heap ~block:b ~key:p;
        incr added
      | None -> d.exhausted <- true
    done;
    if !added > 0 then begin
      w.refills <- w.refills + 1;
      if Event_log.enabled () then
        Event_log.record
          (Event_log.Window_refill
             { time = d.time; cursor = d.cursor; filled = d.limit; added = !added })
    end

(* [on_find] fires once per request, the first instant the cursor
   reaches it, before the rule decides. *)
let fire_on_find d =
  match d.index with
  | Full _ -> ()
  | Win w ->
    if w.found_upto <= d.cursor && d.cursor < d.limit then begin
      w.found_upto <- d.cursor + 1;
      let b = Win_ref.block_at w.wr d.cursor in
      w.hooks.on_find d ~block:b ~hit:d.in_cache.(b)
    end

(* Built-in demand fetch: covers a cursor miss the rule left open.
   Never fires for the window-omniscient rules (they always fetch the
   next missing block first); it is what lets purely speculative
   history policies run without deadlocking. *)
let demand_fetch d =
  match d.index with
  | Full _ -> ()
  | Win w ->
    if d.cursor < d.limit then begin
      let b = Win_ref.block_at w.wr d.cursor in
      let disk = disk_of d b in
      if not (disk_busy d disk || d.in_cache.(b) || d.in_flight_blocks.(b)) then begin
        let evict =
          if has_free_slot d then None
          else
            let e = furthest_cached d ~from:d.cursor in
            if e < 0 then internal_error d "demand fetch of b%d with full empty cache" b;
            Some e
        in
        w.demand_fetches <- w.demand_fetches + 1;
        start_fetch ~disk d ~block:b ~evict
      end
    end

(* ------------------------------------------------------------------ *)
(* The loop. *)

(* Event skipping: after a decide/advance step, run through instants
   where the decide callback is provably a no-op, stopping at (never
   past) the next completion so [tick_completions] fires on time.

   - Serve steps while every disk is busy: the contract makes decide a
     no-op (and the demand fetch needs an idle disk), so serve in a
     tight loop - in a stream, with [on_find] before and the refill
     after each serve, exactly as the instant loop orders them.
   - Stall steps where the previous decide call already saw this exact
     (cursor, cache, in-flight) state and did nothing ([quiescent]), or
     where every disk is busy: nothing can change until a completion, so
     add the whole stall run at once. *)
let fast_forward d ~quiescent =
  let quiescent = ref quiescent in
  let continue = ref true in
  while !continue && not (finished d) do
    let ne = next_completion d in
    if d.time >= ne then continue := false
    else if d.in_cache.(request_at d d.cursor) then begin
      if d.in_flight_count = d.num_disks then begin
        fire_on_find d;
        serve_one d;
        refill d;
        quiescent := false
      end
      else continue := false
    end
    else if d.in_flight_count = 0 then
      (* Deadlock: return to the main loop, whose [advance] raises the
         canonical diagnostic after one more (no-op) decide. *)
      continue := false
    else if d.in_flight_count = d.num_disks || !quiescent then begin
      d.clock_skips <- d.clock_skips + 1;
      d.clock_units_skipped <- d.clock_units_skipped + (ne - d.time);
      if d.track_stalls && d.stall_from < 0 then d.stall_from <- d.time;
      if Event_log.enabled () then
        Event_log.record
          (Event_log.Clock_skip { from_time = d.time; until_time = ne; cursor = d.cursor });
      d.stall <- d.stall + (ne - d.time);
      d.time <- ne
    end
    else continue := false
  done

(* One registry flush per run: the hot loops above only touch plain int
   fields; this is where they become counters, under [driver.] for
   batch runs and [stream.] for streams.  Totals accumulate across runs
   (sweeps sum naturally); per-run values are recoverable from the run
   counter. *)
let flush_stats d =
  if Telemetry.enabled () then begin
    let prefix = match d.index with Full _ -> "driver." | Win _ -> "stream." in
    let c name v = Telemetry.add (Telemetry.counter (prefix ^ name)) v in
    c "runs" 1;
    c "fetches" d.fetch_count;
    c "stall_units" d.stall;
    c "frontier_advances" d.frontier_advances;
    c "frontier_clamps" d.frontier_clamps;
    c "clock_skips" d.clock_skips;
    c "clock_units_skipped" d.clock_units_skipped;
    c "heap_pushes" (Evict_heap.pushes d.heap);
    c "heap_stale_pops" (Evict_heap.stale_pops d.heap);
    c "heap_compactions" (Evict_heap.compactions d.heap);
    Telemetry.observe_int (Telemetry.histogram (prefix ^ "heap_load"))
      (Evict_heap.heap_load d.heap);
    match d.index with
    | Full _ -> ()
    | Win w ->
      c "requests" d.cursor;
      c "pulled" d.limit;
      c "refills" w.refills;
      c "demand_fetches" w.demand_fetches
  end

let drive d ~decide =
  while not (finished d) do
    tick_completions d;
    fire_on_find d;
    let fetches_before = d.fetch_count in
    decide d;
    demand_fetch d;
    let cursor_before = d.cursor in
    advance d;
    refill d;
    (* Quiescent iff decide has already seen exactly this state and made
       no move: it started no fetch, and the advance step was a stall (a
       serve moves the cursor decide keyed its decision on). *)
    fast_forward d ~quiescent:(d.fetch_count = fetches_before && d.cursor = cursor_before)
  done;
  flush_stats d;
  d

(* Run an algorithm defined by a per-instant decision callback.  The
   callback runs after completions and may call [start_fetch]. *)
let run inst ~decide = drive (create inst) ~decide

let run_stream ~k ~fetch_time ~window ~record_schedule ~initial_cache ~hooks ~decide pull =
  if k < 1 then Instance.invalidf "stream: cache size k must be >= 1 (got %d)" k;
  if fetch_time < 1 then Instance.invalidf "stream: fetch time F must be >= 1 (got %d)" fetch_time;
  if window < 1 then Instance.invalidf "stream: window must be >= 1 (got %d)" window;
  let d =
    make
      ~index:
        (Win { wr = Win_ref.create (); pull; window; hooks; found_upto = 0; demand_fetches = 0;
               refills = 0 })
      ~k ~fetch_time ~num_disks:1 ~disk_of:[||] ~record:record_schedule ~limit:0
      ~exhausted:false ~cap:64
  in
  List.iter
    (fun b ->
       if b < 0 then Instance.invalidf "stream: negative initial cache block %d" b;
       if in_cache d b then Instance.invalidf "stream: duplicate initial cache block %d" b;
       ensure_cap d b;
       cache_add d b)
    initial_cache;
  if d.cache_count > k then
    Instance.invalidf "stream: initial cache holds %d blocks, more than k = %d" d.cache_count k;
  refill d;
  drive d ~decide

(* ------------------------------------------------------------------ *)
(* Typed error channel for "the algorithm emitted a schedule the
   simulator rejects" - an internal invariant violation, not a user
   error.  One exception instead of nine per-algorithm [failwith]s, so
   Measure and the CLI can catch it uniformly. *)

exception Invalid_schedule = Simulate.Invalid_schedule
(* The definition (and its printer) lives in {!Simulate}, the layer that
   actually rejects schedules; rebinding keeps [Driver.Invalid_schedule]
   patterns working and makes the two constructors interchangeable. *)

let validate ~name ?extra_slots inst sched =
  match Simulate.run ?extra_slots inst sched with
  | Ok s -> s
  | Error e -> Simulate.reject ~algorithm:name e
