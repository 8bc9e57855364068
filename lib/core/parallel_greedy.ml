(* Greedy baselines for D parallel disks (Kimbrel-Karlin).

   Aggressive-D: whenever a disk is idle, start a prefetch on it for the
   next missing block residing on that disk, provided a cached block exists
   whose next reference is after that miss; evict the
   furthest-next-reference cached block.  Kimbrel & Karlin showed the
   elapsed-time approximation ratio of this strategy degrades to about D.

   Conservative-D: replicate MIN's replacements (as in the single-disk
   Conservative), dispatching each fetch to its block's home disk at the
   earliest consistent time. *)

let aggressive_decide d =
  let inst = Driver.instance d in
  for disk = 0 to inst.Instance.num_disks - 1 do
    if not (Driver.disk_busy d disk) then begin
      let c = Driver.cursor d in
      let p = Driver.next_missing_on_disk d ~disk ~from:c in
      if p >= 0 then begin
        let block = inst.Instance.seq.(p) in
        if not (Driver.cache_full d) then Driver.start_fetch d ~disk ~block ~evict:None
        else begin
          let e = Driver.furthest_cached d ~from:c in
          if e >= 0 && Driver.next_ref d ~block:e ~from:c > p then
            Driver.start_fetch d ~disk ~block ~evict:(Some e)
        end
      end
    end
  done

let aggressive_schedule (inst : Instance.t) : Fetch_op.schedule =
  Driver.schedule (Driver.run inst ~decide:aggressive_decide)

let aggressive_stats inst = Driver.validate ~name:"Aggressive-D" inst (aggressive_schedule inst)

let aggressive_stall inst = (aggressive_stats inst).Simulate.stall_time

(* Conservative-D: MIN replacements dispatched per disk.

   Dispatch a consecutive prefix of the MIN replacement list: stopping at
   the first non-startable fetch preserves MIN's eviction-order invariants
   (a later replacement may rely on an earlier one having happened), while
   consecutive fetches on different disks still start in the same instant
   and overlap.  Returns the undispatched rest. *)
let rec dispatch d = function
  | [] -> []
  | (p : Conservative.pending) :: rest as all ->
    let disk = (Driver.instance d).Instance.disk_of.(p.Conservative.fetched) in
    if (not (Driver.disk_busy d disk)) && Driver.cursor d >= p.Conservative.eligible_cursor then begin
      Driver.start_fetch d ~disk ~block:p.Conservative.fetched ~evict:p.Conservative.evicted;
      dispatch d rest
    end
    else all

let conservative_rule (inst : Instance.t) =
  let pending = ref (Conservative.plan inst) in
  fun d -> pending := dispatch d !pending

let conservative_schedule (inst : Instance.t) : Fetch_op.schedule =
  Driver.schedule (Driver.run inst ~decide:(conservative_rule inst))

let conservative_stats inst =
  Driver.validate ~name:"Conservative-D" inst (conservative_schedule inst)

let conservative_stall inst = (conservative_stats inst).Simulate.stall_time
