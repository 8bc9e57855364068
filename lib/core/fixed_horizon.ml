(* The Fixed Horizon prefetching strategy.

   From the trace-driven comparison literature the paper builds on (Kimbrel
   et al., OSDI'96 [15]): initiate the fetch for a missing block exactly F
   requests before its reference - "just in time" - so that, with no other
   contention, the block arrives exactly when needed and the eviction is
   delayed as long as possible.  With disk contention the fetch simply
   starts as soon after its horizon point as the disk allows.

   Fixed Horizon is the natural middle point between Aggressive (fetch as
   early as possible) and Conservative/Delay (fetch as late as the eviction
   allows) and serves as another baseline for E3/E7-style comparisons.  On
   a single disk with no contention it is stall-free whenever Aggressive
   is. *)

let rule (inst : Instance.t) =
  let f = inst.Instance.fetch_time in
  let seq = inst.Instance.seq in
  fun d ->
    let inst = Driver.instance d in
    for disk = 0 to inst.Instance.num_disks - 1 do
      if not (Driver.disk_busy d disk) then begin
        let c = Driver.cursor d in
        let p =
          if inst.Instance.num_disks = 1 then Driver.next_missing d
          else Driver.next_missing_on_disk d ~disk ~from:c
        in
        (* Only start once the cursor is within the horizon: p - cursor
           <= F.  (If the disk was busy at the horizon point we are
           already late and start immediately.) *)
        if p >= 0 && p - c <= f then begin
          let block = seq.(p) in
          if not (Driver.cache_full d) then Driver.start_fetch d ~disk ~block ~evict:None
          else begin
            let e = Driver.furthest_cached d ~from:c in
            if e >= 0 && Driver.next_ref d ~block:e ~from:c > p then
              Driver.start_fetch d ~disk ~block ~evict:(Some e)
          end
        end
      end
    done

let schedule (inst : Instance.t) : Fetch_op.schedule =
  Driver.schedule (Driver.run inst ~decide:(rule inst))

let stats inst = Driver.validate ~name:"Fixed-Horizon" inst (schedule inst)

let stall_time inst = (stats inst).Simulate.stall_time
let elapsed_time inst = (stats inst).Simulate.elapsed_time
