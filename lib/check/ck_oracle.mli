(** Oracle framework for the conformance fuzzer.

    An oracle is a named machine-checked property of a problem instance,
    grouped into classes forming the harness's hierarchy
    (DESIGN.md section 6): schedule {e validity}, stall {e accounting}
    identities, the paper's {e theorem} bounds, and {e differential}
    agreement between independent implementations, plus the {e delayed}
    class (PR 7): degenerate-plan equivalence of the delayed-hit
    executor and its queueing invariants, and the {e stream} class:
    full-window equivalence of streaming runs to batch runs and exact
    replay of bounded-window schedules.  Oracles
    are total:
    exceptions escaping a check are reported as failures, and
    inapplicable instances (wrong disk count, too large for an exact
    reference) are skipped with a reason rather than silently passed. *)

type class_ = Validity | Accounting | Theorem | Differential | Delayed | Stream

val all_classes : class_ list
val class_name : class_ -> string

val class_of_string : string -> class_ option
(** Accepts the lowercase names printed by {!class_name}. *)

type outcome =
  | Pass
  | Skip of string  (** oracle not applicable to this instance *)
  | Fail of {
      msg : string;
      schedule : Fetch_op.schedule option;
          (** offending schedule, when one exists - lets the reporter
              render a Gantt chart and event trace of the failure *)
      extra_slots : int;  (** capacity the witness schedule is allowed *)
    }

val is_fail : outcome -> bool

type t = {
  name : string;
  cls : class_;
  check : Instance.t -> outcome;
}

(** {1 Differential-oracle ceilings}

    Largest instances the exact-optimum-backed oracles accept, and the
    node budget they hand the branch-and-bound engine.  Defined once so
    the CLI ([ipc fuzz --ceilings]) can print them and CI can assert the
    deep-fuzz workflow runs with the advertised coverage. *)

val differential_single_ceiling : int
(** Max request-sequence length for the single-disk DP-vs-exhaustive
    agreement oracle. *)

val differential_single_blocks : int
(** Max distinct blocks for the same oracle. *)

val differential_parallel_ceiling : int
(** Max request-sequence length for the Theorem-4 LP sandwich (parallel
    exhaustive optimum). *)

val differential_node_budget : int
(** Node budget handed to {!Opt.solve_single} / {!Opt.solve_parallel} by
    those oracles; exceeding it is a [Skip], not a failure. *)

val make : name:string -> cls:class_ -> (Instance.t -> outcome) -> t
(** Wraps the check so that any escaping exception (including
    [Driver.Invalid_schedule] and assertion failures) becomes a [Fail]. *)

val failf :
  ?schedule:Fetch_op.schedule -> ?extra_slots:int ->
  ('a, unit, string, outcome) format4 -> 'a
