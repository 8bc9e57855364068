(* The Delay(d) family (Section 2 of the paper).

   Delay(0) is exactly Aggressive; Delay(n) is exactly Conservative, so the
   family interpolates between the two classical strategies.  The rule, for
   a fixed non-negative integer d: when the disk is idle, let r_i be the
   next request and r_j the next missing reference.

   - If every cached block is requested before r_j, serve r_i without
     fetching (re-evaluate at the next instant).
   - Otherwise let d' = min{d, j - i} and let b be the cached block whose
     next request is furthest in the future *measured after request
     r_{i+d'-1}* (i.e. as if the decision were delayed d' requests).
     Initiate the fetch for r_j's block at the earliest time after r_{i-1}
     such that b is no longer requested before r_j.

   Theorem 3: ratio(Delay(d)) <= max{(d+F)/F, (d+2F)/(d+F), 3(d+F)/(d+2F)};
   Corollary 1: with d0 = ceil((sqrt3 - 1)F/2) the bound tends to sqrt 3. *)

(* A committed fetch, held until the cursor reaches its eligible
   position.  Plain mutable ints, so committing allocates nothing. *)
type committed = {
  mutable block : int;  (* block to fetch (the one missed at position j), or -1: none *)
  mutable evict : int;  (* victim, or -1: a free slot *)
  mutable eligible_cursor : int;
}

let commit c ~block ~evict ~eligible_cursor =
  c.block <- block;
  c.evict <- evict;
  c.eligible_cursor <- eligible_cursor

(* Earliest initiation for victim b: after b's last request before j.  A
   stream's window has forgotten positions below the cursor, which the
   [p >= i] guard absorbs exactly like a full-trace answer. *)
let commit_victim c drv ~i ~j b =
  let p = Driver.prev_ref drv ~block:b ~before:j in
  commit c ~block:(Driver.request_at drv j) ~evict:b ~eligible_cursor:(if p >= i then p + 1 else i)

(* The rule reads the trace only through the engine's window-safe
   queries, so it drives batch runs and, as the "delay" policy,
   streaming runs alike: every position it looks at (cursor .. next
   missing) lies inside the window. *)
let rule ~d () =
  if d < 0 then invalid_arg "Delay: d must be non-negative";
  let pending = { block = -1; evict = -1; eligible_cursor = 0 } in
  fun drv ->
    if not (Driver.disk_busy drv 0) then begin
      if pending.block < 0 then begin
        let i = Driver.cursor drv in
        let j = Driver.next_missing drv in
        if j >= 0 then
          if not (Driver.cache_full drv) then
            (* Spare capacity: fetch without eviction, no delay needed. *)
            commit pending ~block:(Driver.request_at drv j) ~evict:(-1) ~eligible_cursor:i
          else begin
            (* One heap query decides both whether some cached block is
               requested only after j (the furthest next reference from
               the cursor lands past j) and, when d' = 0, the victim. *)
            let b0 = Driver.furthest_cached drv ~from:i in
            if b0 >= 0 && Driver.next_ref drv ~block:b0 ~from:i > j then begin
              let d' = Stdlib.min d (j - i) in
              if d' = 0 then commit_victim pending drv ~i ~j b0
              else begin
                let b = Driver.furthest_cached drv ~from:(i + d') in
                if b >= 0 then commit_victim pending drv ~i ~j b
              end
            end
          end
      end;
      if pending.block >= 0 && Driver.cursor drv >= pending.eligible_cursor then begin
        Driver.start_fetch drv ~block:pending.block
          ~evict:(if pending.evict < 0 then None else Some pending.evict);
        pending.block <- -1
      end
    end

let schedule ~d (inst : Instance.t) : Fetch_op.schedule =
  Driver.schedule (Driver.run inst ~decide:(rule ~d ()))

let stats ~d inst =
  Driver.validate ~name:(Printf.sprintf "Delay(%d)" d) inst (schedule ~d inst)

let elapsed_time ~d inst = (stats ~d inst).Simulate.elapsed_time
let stall_time ~d inst = (stats ~d inst).Simulate.stall_time
