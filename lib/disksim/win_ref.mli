(** Sliding-window next-reference index for the streaming engine.

    Maintains the request blocks of the lookahead window [[lo, filled))
    - the windowed analogue of {!Next_ref}, built incrementally as
    requests arrive and pruned as the cursor consumes them.  All
    positions are absolute stream indices (0-based).

    Each block's in-window positions form an ascending chain, threaded
    through a ring indexed by position, with the chain's first and last
    position kept in arrays indexed by block id (grown by doubling as
    larger ids arrive).  Memory is O(window + largest block id), and
    nothing is allocated once the ring and the arrays have grown.

    Cost: {!push}, {!drop_below} and {!block_at} are O(1), and so is a
    query whose bound lies at or before the block's first in-window
    position (in particular any query from the window's low edge).  A
    query bounded further in walks the block's chain below the bound, so
    it takes at most one step per occurrence of the block in [[lo,
    bound)], never more than the window's length.  In the engine only
    two callers bound a query beyond the cursor: Delay's d′ window (at
    most d positions) and [prev_ref] before the next missing
    position. *)

type t

val create : unit -> t

val horizon : int
(** Sentinel ([max_int]) for "not referenced within the window".
    Compares above every real position, mirroring the batch engine's
    one-past-the-end sentinel in eviction comparisons. *)

val push : t -> int -> unit
(** [push t b] appends block [b >= 0] at the window edge, extending the
    window by one. *)

val drop_below : t -> int -> unit
(** [drop_below t cursor] forgets every position below [cursor], which
    must not lie beyond the window edge. *)

val block_at : t -> int -> int
(** Block at an absolute position inside [[lo, filled)).  Unchecked:
    outside the window the result is unspecified (the engine checks its
    reads against its own window bounds). *)

val next_at_or_after : t -> int -> from:int -> int
(** First in-window position [>= from] referencing the block, or
    {!horizon}. *)

val prev_before : t -> int -> before:int -> int
(** Last in-window position [< before] referencing the block, or [-1]. *)
