(* Reverse Aggressive (Kimbrel-Karlin), as a practical baseline.

   Kimbrel and Karlin observed that running Aggressive on the REVERSED
   request sequence and mirroring the result (a reverse fetch of block b
   that evicts e becomes, forward in time, a fetch of e that evicts b)
   yields a (1 + DF/k)-approximation for elapsed time on D disks - often
   much better than forward Aggressive's ~D when the eviction choice is the
   bottleneck.

   Faithfulness note (also in DESIGN.md): the exact mirror construction
   assumes the forward schedule's final cache contents equal the reverse
   run's initial cache, which is not knowable in our setting where the
   forward initial cache is prescribed.  We therefore use the mirrored
   (fetch, evict) pairs as *guidance*: the forward scheduler follows the
   mirrored eviction pairing whenever it is consistent with the actual
   cache state, and falls back to furthest-next-reference eviction
   otherwise.  The result is always a valid schedule (executor-checked),
   and coincides with the mirror construction when the boundary conditions
   line up. *)

let reverse_instance (inst : Instance.t) : Instance.t =
  let n = Instance.length inst in
  let seq_r = Array.init n (fun i -> inst.Instance.seq.(n - 1 - i)) in
  { inst with
    Instance.seq = seq_r;
    initial_cache = Instance.warm_initial_cache ~k:inst.Instance.cache_size seq_r }

(* Mirrored eviction hints: block -> preferred eviction victim, or -1,
   harvested from the reverse run's fetches. *)
let eviction_hints (inst : Instance.t) : int array =
  let rinst = reverse_instance inst in
  let rops =
    if inst.Instance.num_disks = 1 then Aggressive.schedule rinst
    else Parallel_greedy.aggressive_schedule rinst
  in
  let hints = Array.make (Instance.num_blocks inst) (-1) in
  (* A reverse fetch of b evicting e says: forward, when fetching e, prefer
     evicting b.  Each block keeps the hint of the first such reverse
     fetch in schedule order. *)
  List.iter
    (fun (op : Fetch_op.t) ->
       match op.Fetch_op.evict with
       | Some e when hints.(e) < 0 -> hints.(e) <- op.Fetch_op.block
       | Some _ | None -> ())
    rops;
  hints

let decide hints d =
  let inst = Driver.instance d in
  for disk = 0 to inst.Instance.num_disks - 1 do
    if not (Driver.disk_busy d disk) then begin
      let c = Driver.cursor d in
      let p =
        if inst.Instance.num_disks = 1 then Driver.next_missing d
        else Driver.next_missing_on_disk d ~disk ~from:c
      in
      if p >= 0 then begin
        let block = inst.Instance.seq.(p) in
        if not (Driver.cache_full d) then Driver.start_fetch d ~disk ~block ~evict:None
        else begin
          let h = hints.(block) in
          if h >= 0 && Driver.in_cache d h && Driver.next_ref d ~block:h ~from:c > p then
            Driver.start_fetch d ~disk ~block ~evict:(Some h)
          else begin
            let e = Driver.furthest_cached d ~from:c in
            if e >= 0 && Driver.next_ref d ~block:e ~from:c > p then
              Driver.start_fetch d ~disk ~block ~evict:(Some e)
          end
        end
      end
    end
  done

let rule (inst : Instance.t) = decide (eviction_hints inst)

let schedule (inst : Instance.t) : Fetch_op.schedule =
  Driver.schedule (Driver.run inst ~decide:(rule inst))

let stats inst = Driver.validate ~name:"Reverse-Aggressive" inst (schedule inst)

let stall_time inst = (stats inst).Simulate.stall_time
let elapsed_time inst = (stats inst).Simulate.elapsed_time
