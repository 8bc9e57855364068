(* Sliding-window next-reference index for the streaming engine.

   The batch engine precomputes {!Next_ref} over the whole sequence; a
   streaming scheduler only ever knows the requests inside its bounded
   lookahead window [lo, hi).  This structure maintains exactly that
   knowledge, with no allocation once it has grown to the window and the
   block ids:

   - two rings indexed by absolute position (a power-of-two size, so a
     position's slot is [p land mask]): the block requested there, and
     the next in-window position of the same block ([horizon] for the
     block's last one), so each block's in-window occurrences form an
     ascending chain;
   - two arrays indexed by block id: the first and last in-window
     position of each block ([horizon] and [-1] when it has none).  They
     double as larger ids arrive, like the engine's own per-block
     arrays.

   [push] appends to the block's chain and [drop_below] pops the chain's
   head, each O(1).  A query from the window's low edge reads [first]
   directly; one from further in walks the block's chain below its
   bound.

   Positions at or beyond the window edge are unknowable; queries answer
   {!horizon} ("not referenced within the lookahead"), which comparisons
   treat exactly like the batch engine's one-past-the-end sentinel. *)

let horizon = max_int

type t = {
  mutable blocks : int array;  (* ring: block at each in-window position *)
  mutable next : int array;  (* ring: next in-window position of the same block, or horizon *)
  mutable mask : int;  (* ring size - 1 *)
  mutable lo : int;  (* lowest retained absolute position *)
  mutable hi : int;  (* next absolute position to be pushed *)
  mutable first : int array;  (* block -> first in-window position, or horizon *)
  mutable last : int array;  (* block -> last in-window position, or -1 *)
}

let create () =
  { blocks = Array.make 64 0;
    next = Array.make 64 horizon;
    mask = 63;
    lo = 0;
    hi = 0;
    first = Array.make 64 horizon;
    last = Array.make 64 (-1) }

let block_at t p = t.blocks.(p land t.mask)

(* Double the rings; slots move because the mask changes. *)
let grow_ring t =
  let size = 2 * (t.mask + 1) in
  let mask = size - 1 in
  let blocks = Array.make size 0 and next = Array.make size horizon in
  for p = t.lo to t.hi - 1 do
    blocks.(p land mask) <- t.blocks.(p land t.mask);
    next.(p land mask) <- t.next.(p land t.mask)
  done;
  t.blocks <- blocks;
  t.next <- next;
  t.mask <- mask

let grow_blocks t b =
  let len = Array.length t.first in
  let len' = Stdlib.max (2 * len) (b + 1) in
  let grow a fill =
    let a' = Array.make len' fill in
    Array.blit a 0 a' 0 len;
    a'
  in
  t.first <- grow t.first horizon;
  t.last <- grow t.last (-1)

let push t b =
  if t.hi - t.lo > t.mask then grow_ring t;
  if b >= Array.length t.first then grow_blocks t b;
  let p = t.hi in
  t.blocks.(p land t.mask) <- b;
  t.next.(p land t.mask) <- horizon;
  let l = t.last.(b) in
  if l < 0 then t.first.(b) <- p else t.next.(l land t.mask) <- p;
  t.last.(b) <- p;
  t.hi <- p + 1

let drop_below t cursor =
  while t.lo < cursor do
    let i = t.lo land t.mask in
    let b = t.blocks.(i) in
    let nx = t.next.(i) in
    t.first.(b) <- nx;
    if nx = horizon then t.last.(b) <- -1;
    t.lo <- t.lo + 1
  done

let next_at_or_after t b ~from =
  if b >= Array.length t.first then horizon
  else begin
    (* The chain ends in horizon, which stops the walk. *)
    let p = ref t.first.(b) in
    while !p < from do
      p := t.next.(!p land t.mask)
    done;
    !p
  end

let prev_before t b ~before =
  if b >= Array.length t.first then -1
  else begin
    let l = t.last.(b) in
    if l < before then l
    else begin
      (* Some occurrence lies at or beyond [before]: walk the chain from
         its head while the next occurrence stays below [before]. *)
      let p = ref (-1) and q = ref t.first.(b) in
      while !q < before do
        p := !q;
        q := t.next.(!q land t.mask)
      done;
      !p
    end
  end
