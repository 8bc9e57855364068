(** Streaming-run oracles (class [Stream], single-disk).

    - {e full-window equivalence}: at [window = n] the streaming
      Aggressive and Delay(d) policies for d in [{0, 1, d0}] (the batch
      schedulers' own rules on the windowed index) emit schedules
      byte-identical to the batch runs, with matching stall time and a
      silent demand path.
    - {e bounded-window replay}: every registered policy's recorded
      schedule, across a spread of window sizes, is accepted by
      {!Simulate.run} with exactly the stall and elapsed time the
      streaming engine reported. *)

val full_window : Ck_oracle.t
val replay : Ck_oracle.t

val all : Ck_oracle.t list
