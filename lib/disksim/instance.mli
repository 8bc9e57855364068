(** Problem instances in the Cao-Felten-Karlin-Li model of integrated
    prefetching and caching, extended with the parallel-disk layout of
    Kimbrel-Karlin and Albers-Buettner.

    Blocks are dense non-negative integers; every block lives on exactly
    one disk; serving a cached request costs one time unit and a fetch
    costs [fetch_time] units overlapping request service. *)

type block = int

type t = {
  seq : block array;  (** the request sequence r_1 ... r_n (0-based array) *)
  cache_size : int;  (** k *)
  fetch_time : int;  (** F *)
  num_disks : int;  (** D *)
  disk_of : int array;  (** home disk of each block, in [0, D) *)
  initial_cache : block list;  (** blocks resident at time 0 (<= k, distinct) *)
}

val length : t -> int
val num_blocks : t -> int

exception Invalid of string

val invalidf : ('a, unit, string, 'b) format4 -> 'a
(** [invalidf fmt ...] raises {!Invalid} with the formatted message. *)

val validate : t -> t
(** @raise Invalid when any structural invariant fails. *)

val single_disk : k:int -> fetch_time:int -> initial_cache:block list -> block array -> t
(** @raise Invalid on malformed parameters. *)

val parallel :
  k:int ->
  fetch_time:int ->
  num_disks:int ->
  disk_of:int array ->
  initial_cache:block list ->
  block array ->
  t
(** @raise Invalid on malformed parameters. *)

val warm_initial_cache : k:int -> block array -> block list
(** The first [k] distinct blocks of the sequence - the common experimental
    convention for a warmed-up cache. *)

val disk_blocks : t -> int -> block list
(** Blocks residing on the given disk. *)

val positions_of_block : t -> block -> int list
(** 0-based positions at which the block is requested. *)

val pp : Format.formatter -> t -> unit
