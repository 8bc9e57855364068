(* Next-reference oracle.

   Every algorithm in the paper (Aggressive's furthest-in-future eviction,
   Conservative's MIN replacements, the LP normalization properties) needs
   "when is block b next requested at or after position i?" in O(1) or
   O(log) time.  We precompute, for every position, the next occurrence of
   the block requested there, and every block's sorted positions for
   arbitrary (position, block) queries.

   Layout: three flat int arrays, no per-block allocation.  [pos] holds
   every position grouped by block (compressed sparse rows), ascending
   within a block; block b's slice is [start.(b), start.(b + 1)).  A
   counting sort fills it: one pass counts each block's requests, a
   prefix sum places the slices, and one backward pass writes each slice
   from its end while reading [next_same] off the entry written just
   before. *)

type t = {
  n : int;
  next_same : int array;
  (* next_same.(i) = smallest j > i with seq.(j) = seq.(i), or n. *)
  start : int array;  (* num_blocks + 1 slice bounds into [pos] *)
  pos : int array;  (* the n positions, grouped by block, ascending within one *)
}

let build (seq : int array) ~num_blocks =
  let n = Array.length seq in
  let start = Array.make (num_blocks + 1) 0 in
  for i = 0 to n - 1 do
    let b = seq.(i) in
    start.(b + 1) <- start.(b + 1) + 1
  done;
  for b = 1 to num_blocks do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let pos = Array.make n 0 in
  let next_same = Array.make n n in
  (* fill.(b): the lowest slot of b's slice written so far. *)
  let fill = Array.sub start 1 num_blocks in
  for i = n - 1 downto 0 do
    let b = seq.(i) in
    let f = fill.(b) in
    if f < start.(b + 1) then next_same.(i) <- pos.(f);
    pos.(f - 1) <- i;
    fill.(b) <- f - 1
  done;
  { n; next_same; start; pos }

let of_instance (inst : Instance.t) = build inst.Instance.seq ~num_blocks:(Instance.num_blocks inst)

(* Next occurrence of the block at position i, strictly after i. *)
let next_after_same t i = t.next_same.(i)

(* First slot in [lo, hi) of the ascending [pos] slice holding a
   position >= p, or hi.  Callers pass a block's slice bounds, read with
   checks from [start]; every [start] entry lies in [0, n], so [mid] is a
   valid slot and the probe skips the bounds check (checked probes made
   the query about 1.5x slower). *)
let rec lower_bound (pos : int array) p lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Array.unsafe_get pos mid >= p then lower_bound pos p lo mid
    else lower_bound pos p (mid + 1) hi

(* Smallest position >= pos at which block b is requested, or n if none. *)
let next_at_or_after t b p =
  let hi = t.start.(b + 1) in
  let i = lower_bound t.pos p t.start.(b) hi in
  if i < hi then t.pos.(i) else t.n

(* Largest position < pos at which block b is requested, or -1 if none. *)
let prev_before t b p =
  let lo = t.start.(b) in
  let i = lower_bound t.pos p lo t.start.(b + 1) in
  if i = lo then -1 else t.pos.(i - 1)
