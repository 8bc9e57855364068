(** Prefetch policies for streaming runs, and their registry.

    The paper's rules ({!aggressive}, {!delay}) are {!Aggressive.decide}
    and {!Delay.rule} run against the bounded lookahead window, so they
    are byte-identical to the batch runs at [window = n]; history-based
    competitors ({!obl}, {!markov}) predict from the observed past and
    exist only in the streaming world.  Drivers select policies by name
    through the registry, libCacheSim-style. *)

(** {1 Built-in policies}

    Each call returns a fresh policy (hook state is per-run). *)

val aggressive : unit -> Stream.policy
(** Windowed Aggressive: when the disk is idle, fetch the next missing
    block, evicting the furthest-referenced cached block — provided that
    victim's next reference lies beyond the fetched position. *)

val delay : d:int -> unit -> Stream.policy
(** Windowed Delay(d): like Aggressive but the victim is chosen as if
    the decision were delayed [d' = min d (j - i)] requests, and the
    fetch waits until the victim's last request before the missed
    position has been served.  [delay ~d:0] decides exactly like
    {!aggressive}.
    @raise Invalid_argument if [d < 0]. *)

val obl : unit -> Stream.policy
(** One-block lookahead: every reference to block [b] predicts [b + 1].
    Purely speculative — demand misses are covered by the engine. *)

val markov : unit -> Stream.policy
(** First-order successor predictor (Mithril-style frequency table):
    prefetch the most frequently observed successor of the block just
    referenced; ties break towards the smallest block id. *)

val demand : unit -> Stream.policy
(** No prefetching at all: the engine's demand path with
    furthest-cached eviction.  Baseline. *)

(** {1 Registry} *)

val register : name:string -> doc:string -> (fetch_time:int -> Stream.policy) -> unit
(** Add a named policy builder.  Builders receive the run's fetch time
    (Delay's default distance d0 depends on it) and must return a fresh
    policy per call.
    @raise Invalid_argument on a duplicate name. *)

val find : string -> (fetch_time:int -> Stream.policy) option

val names : unit -> string list
(** Registered names, sorted.  Built-ins: [aggressive], [delay],
    [demand], [markov], [obl]. *)

val all : unit -> (string * string) list
(** [(name, doc)] pairs, sorted by name. *)
