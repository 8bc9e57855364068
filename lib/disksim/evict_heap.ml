(* Lazy-invalidation max-heap of eviction candidates.

   Backs Driver.furthest_cached: one entry per resident block, keyed by
   the position of the block's next reference, ordered (key desc, block
   asc) so the heap top is exactly what the seed driver's ascending-id
   strict-> scan over all blocks returned - the largest key, ties broken
   towards the smallest block id.

   Invalidation is lazy: [remove] and re-keying [add]s only bump the
   block's stamp; superseded entries stay in the heap and are discarded
   when they surface during [top].  Every push therefore pays for at
   most one future stale pop, so m operations cost O(m log m) total.  A
   background compaction bounds the heap at O(live) entries even for
   callers that push (serve re-keys) much more often than they query. *)

type t = {
  mutable key : int array;   (* heap slot -> key *)
  mutable blk : int array;   (* heap slot -> block *)
  mutable stp : int array;   (* heap slot -> stamp at push time *)
  mutable len : int;
  mutable stamp : int array; (* block -> current stamp; entries with an older stamp are stale *)
  mutable key_of : int array; (* block -> its live key, or -1 if not in the heap *)
  mutable live : int;        (* number of blocks with a live entry *)
  (* Lifetime stats, unconditionally maintained (plain int increments);
     the driver flushes them into telemetry counters once per run. *)
  mutable pushes : int;
  mutable stale_pops : int;
  mutable compactions : int;
}

let create ~num_blocks =
  { key = Array.make 16 0;
    blk = Array.make 16 0;
    stp = Array.make 16 0;
    len = 0;
    stamp = Array.make (Stdlib.max 1 num_blocks) 0;
    key_of = Array.make (Stdlib.max 1 num_blocks) (-1);
    live = 0;
    pushes = 0;
    stale_pops = 0;
    compactions = 0 }

let widen t ~num_blocks =
  let extend a fill = Array.append a (Array.make (num_blocks - Array.length a) fill) in
  if num_blocks > Array.length t.stamp then begin
    t.stamp <- extend t.stamp 0;
    t.key_of <- extend t.key_of (-1)
  end

let size t = t.live
let heap_load t = t.len
let mem t block = t.key_of.(block) >= 0
let key_of t block = t.key_of.(block)

(* Max-heap order: larger key first; among equal keys, smaller block id
   first (the seed scan's tie-break). *)
let beats t i j =
  t.key.(i) > t.key.(j) || (t.key.(i) = t.key.(j) && t.blk.(i) < t.blk.(j))

let swap t i j =
  let k = t.key.(i) and b = t.blk.(i) and s = t.stp.(i) in
  t.key.(i) <- t.key.(j); t.blk.(i) <- t.blk.(j); t.stp.(i) <- t.stp.(j);
  t.key.(j) <- k; t.blk.(j) <- b; t.stp.(j) <- s

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if beats t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.len then begin
    let best = if l + 1 < t.len && beats t (l + 1) l then l + 1 else l in
    if beats t best i then begin
      swap t i best;
      sift_down t best
    end
  end

let grow t =
  let cap = 2 * Array.length t.key in
  let resize a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.key <- resize t.key;
  t.blk <- resize t.blk;
  t.stp <- resize t.stp

let push t ~key ~block ~stamp =
  t.pushes <- t.pushes + 1;
  if t.len = Array.length t.key then grow t;
  let i = t.len in
  t.key.(i) <- key; t.blk.(i) <- block; t.stp.(i) <- stamp;
  t.len <- t.len + 1;
  sift_up t i

let is_stale t i = t.stamp.(t.blk.(i)) <> t.stp.(i)

(* Drop superseded entries in place and re-heapify; keeps the heap at
   O(live) entries when pushes (per-serve re-keys) outnumber queries. *)
let compact t =
  t.compactions <- t.compactions + 1;
  let w = ref 0 in
  for r = 0 to t.len - 1 do
    if not (is_stale t r) then begin
      t.key.(!w) <- t.key.(r); t.blk.(!w) <- t.blk.(r); t.stp.(!w) <- t.stp.(r);
      incr w
    end
  done;
  t.len <- !w;
  for i = (t.len / 2) - 1 downto 0 do
    sift_down t i
  done

let maybe_compact t = if t.len > 64 && t.len > 2 * t.live then compact t

let add t ~block ~key =
  (* key_of uses -1 as its "no live entry" sentinel, so a negative key
     would make the entry unremovable (and double-count [live]); every
     caller keys by a position or a biased score, so one is a bug. *)
  if key < 0 then
    Simulate.internal_error ~component:"evict_heap" "add of b%d with negative key %d" block key;
  if t.key_of.(block) < 0 then t.live <- t.live + 1;
  t.stamp.(block) <- t.stamp.(block) + 1;
  t.key_of.(block) <- key;
  push t ~key ~block ~stamp:t.stamp.(block);
  maybe_compact t

let remove t ~block =
  if t.key_of.(block) >= 0 then begin
    t.key_of.(block) <- -1;
    t.live <- t.live - 1;
    t.stamp.(block) <- t.stamp.(block) + 1
  end

let pop_top t =
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.key.(0) <- t.key.(t.len);
    t.blk.(0) <- t.blk.(t.len);
    t.stp.(0) <- t.stp.(t.len);
    sift_down t 0
  end

let rec top t =
  if t.len = 0 then -1
  else if is_stale t 0 then begin
    t.stale_pops <- t.stale_pops + 1;
    pop_top t;
    top t
  end
  else t.blk.(0)

let pushes t = t.pushes
let stale_pops t = t.stale_pops
let compactions t = t.compactions
