(** Next-reference oracle.

    Every algorithm in the paper (Aggressive's furthest-in-future eviction,
    Conservative's MIN replacements, the LP normalization properties)
    needs "when is block [b] next requested at or after position [i]?".
    Positions are 0-based; the value [n] (one past the sequence) means
    "never again". *)

type t

val build : int array -> num_blocks:int -> t
val of_instance : Instance.t -> t

val next_after_same : t -> int -> int
(** [next_after_same t i]: next occurrence of the block at position [i],
    strictly after [i]. *)

val next_at_or_after : t -> int -> int -> int
(** [next_at_or_after t b pos]: smallest position [>= pos] requesting [b]. *)

val prev_before : t -> int -> int -> int
(** [prev_before t b pos]: largest position [< pos] requesting [b], or
    [-1] if there is none.  Replaces the O(n) last-occurrence scans in
    Conservative/Delay eligible-cursor computation and Online's LRU
    recency with an O(log n) query. *)
