(* The Aggressive algorithm (Cao et al.), single disk.

   Whenever the disk is idle, initiate a prefetch for the next missing
   block in the sequence, provided some cached block is not requested
   before the block to be fetched; evict the cached block whose next
   reference is furthest in the future.

   Theorem 1 of the paper: the elapsed-time approximation ratio is at most
   min{1 + F/(k + ceil(k/F) - 1), 2}; Theorem 2 shows this is essentially
   tight.

   [decide] reads the trace only through the engine's window-safe
   queries, so the same rule drives batch runs and, as the "aggressive"
   policy, streaming runs with a bounded lookahead. *)

let decide d =
  if not (Driver.disk_busy d 0) then begin
    let p = Driver.next_missing d in
    if p >= 0 then begin
      let block = Driver.request_at d p in
      if not (Driver.cache_full d) then Driver.start_fetch d ~block ~evict:None
      else begin
        let c = Driver.cursor d in
        let e = Driver.furthest_cached d ~from:c in
        (* Otherwise every cached block is requested before p. *)
        if e >= 0 && Driver.next_ref d ~block:e ~from:c > p then
          Driver.start_fetch d ~block ~evict:(Some e)
      end
    end
  end

(* Returns the schedule; use [stats] for validated timing. *)
let schedule (inst : Instance.t) : Fetch_op.schedule =
  Driver.schedule (Driver.run inst ~decide)

let stats inst = Driver.validate ~name:"Aggressive" inst (schedule inst)

let elapsed_time inst = (stats inst).Simulate.elapsed_time
let stall_time inst = (stats inst).Simulate.stall_time
