(* Limited-lookahead online prefetching (the open problem of Section 4).

   "All the previous work on integrated prefetching and caching assumes
   that the entire request sequence is known in advance.  A challenging
   open problem is to investigate online variants of the problem when only
   limited information about the future is available."

   This module implements the natural experiment: Aggressive and Delay(d)
   that can only see the next [lookahead] requests.  Decisions use the
   visible window; blocks invisible in the window are treated as
   never-requested-again (eviction candidates of last resort, broken by
   LRU order so that the policy degrades gracefully to plain LRU caching
   with zero lookahead knowledge).  Bench e13 measures the degradation as
   the lookahead shrinks from n to F.

   With delay > 0 the victim preference is scored after the delay window
   (from i + d', the Delay(d) rule), but the fetch is only initiated
   once the victim has no visible request at or before the miss position
   measured from the cursor - the online analogue of offline Delay's
   "earliest consistent time".  Without that gate the policy could evict
   a block still needed inside [i, i + d') - including the block the
   cursor is stalled on - and livelock ping-ponging two blocks through a
   k = 1 cache (seq 0,1,0,1,..., pinned in test_driver_equiv).  For
   delay = 0 the gate is implied by the existing vnx > j condition, so
   the historical behavior is unchanged. *)

type config = {
  lookahead : int;  (* number of future requests visible, >= 1 *)
  delay : int;  (* Delay(d) parameter; 0 = aggressive *)
}

let aggressive ~lookahead = { lookahead; delay = 0 }

(* The victim order is "invisible blocks first, oldest last use wins
   (ties: larger id); otherwise the furthest visible next reference
   (ties: smaller id)" - the score-everything fold of the seed rule,
   which lib/check keeps as this rule's oracle.  Rather than scoring
   every cached block per decision (O(k log n)), split the invisible
   class in two:

   - Class A - no reference in [cursor, horizon) at all.  Kept in a lazy
     LRU heap ({!Evict_heap} keyed by [n - last_use], non-negative as the
     heap requires; block ids mirrored so its smaller-id tie-break
     realizes the larger-real-id preference).
     Entries are (re-)added whenever a request is served, by a monotone
     [scanned] sweep, plus one entry per initial-cache block at
     last-use -1; keys are therefore always current for resident blocks.
     [top_a] discards entries that are non-resident or visible - both
     permanent states until the block's next serve re-adds it (a block's
     next reference is fixed while it sits in cache, and the horizon
     never moves backwards), so discarding loses nothing.  A block
     fetched for miss position j is visible (its next reference IS j)
     until served at j, hence never missed by the lazy heap.
   - Class B - a reference inside the delay window [i, i + d') but none
     in [i + d', horizon).  At most d' candidates, enumerated directly.

   When neither class has a member, every cached block is visible and the
   driver's {!Driver.furthest_cached} heap yields the fold's victim (same
   strict-max, smaller-id tie-break).

   LRU recency is the last request strictly before the cursor, queried
   on demand ([prev_ref]) rather than accumulated per instant, which
   keeps the callback a pure function of the cursor/cache state (the
   driver's decide contract). *)

(* Class A's top: the LRU heap's best entry, after discarding entries
   whose block is non-resident or visible before [horizon].  Returns the
   heap id (the mirrored block), or -1 when the class is empty. *)
let rec top_a heap ~num_blocks d ~cursor ~horizon =
  let m = Evict_heap.top heap in
  if m < 0 then -1
  else
    let b = num_blocks - 1 - m in
    if (not (Driver.in_cache d b)) || Driver.next_ref d ~block:b ~from:cursor < horizon then begin
      Evict_heap.remove heap ~block:m;
      top_a heap ~num_blocks d ~cursor ~horizon
    end
    else m

let rule (cfg : config) (inst : Instance.t) =
  if cfg.lookahead < 1 then invalid_arg "Online: lookahead must be >= 1";
  let n = Instance.length inst in
  let seq = inst.Instance.seq in
  let num_blocks = Instance.num_blocks inst in
  let mirror b = num_blocks - 1 - b in
  let heap = Evict_heap.create ~num_blocks in
  (* Initial-cache blocks rank as last-used at -1: key n + 1, the
     maximum, so they are evicted first (LRU order). *)
  List.iter
    (fun b -> Evict_heap.add heap ~block:(mirror b) ~key:(n + 1))
    inst.Instance.initial_cache;
  let scanned = ref 0 in
  fun d ->
    if not (Driver.disk_busy d 0) then begin
      let c = Driver.cursor d in
      while !scanned < c do
        let b = seq.(!scanned) in
        Evict_heap.add heap ~block:(mirror b) ~key:(n - !scanned);
        incr scanned
      done;
      let horizon = Stdlib.min n (c + cfg.lookahead) in
      let j = Driver.next_missing d in
      if j >= 0 && j < horizon then begin
        let i = c in
        let d' = Stdlib.min cfg.delay (j - i) in
        if not (Driver.cache_full d) then
          Driver.start_fetch d ~block:seq.(j) ~evict:None
        else begin
          (* The best victim so far, or -1, with its last use. *)
          let best = ref (-1) and best_lu = ref 0 in
          let m = top_a heap ~num_blocks d ~cursor:c ~horizon in
          if m >= 0 then begin
            best := mirror m;
            best_lu := n - Evict_heap.key_of heap m
          end;
          for p = i to i + d' - 1 do
            let b = seq.(p) in
            if Driver.in_cache d b
               && Driver.next_ref d ~block:b ~from:(i + d') >= horizon
            then begin
              let lu = Driver.prev_ref d ~block:b ~before:c in
              if !best < 0 || lu < !best_lu || (lu = !best_lu && b > !best) then begin
                best := b;
                best_lu := lu
              end
            end
          done;
          if !best >= 0 then begin
            (* Class A passes the consistency gate by construction
               (nx >= horizon > j); a class-B best is still requested
               inside the delay window, so hold the fetch until those
               requests are served - the seed fold applies the same
               nx-from-cursor test. *)
            if Driver.next_ref d ~block:!best ~from:c > j then
              Driver.start_fetch d ~block:seq.(j) ~evict:(Some !best)
          end
          else begin
            let v = Driver.furthest_cached d ~from:(i + d') in
            if v >= 0
               && Driver.next_ref d ~block:v ~from:(i + d') > j
               && Driver.next_ref d ~block:v ~from:c > j
            then Driver.start_fetch d ~block:seq.(j) ~evict:(Some v)
          end
        end
      end
    end

let schedule (cfg : config) (inst : Instance.t) : Fetch_op.schedule =
  Driver.schedule (Driver.run inst ~decide:(rule cfg inst))

let stats cfg inst = Driver.validate ~name:"Online" inst (schedule cfg inst)

let stall_time cfg inst = (stats cfg inst).Simulate.stall_time
let elapsed_time cfg inst = (stats cfg inst).Simulate.elapsed_time
