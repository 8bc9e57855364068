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

type committed = {
  block : int;  (* block to fetch (the one missed at position j) *)
  evict : int;
  eligible_cursor : int;
}

(* The rule reads the trace only through the engine's window-safe
   queries, so it drives batch runs and, as the "delay" policy,
   streaming runs alike: every position it looks at (cursor .. next
   missing) lies inside the window. *)
let rule ~d () =
  if d < 0 then invalid_arg "Delay: d must be non-negative";
  let pending : committed option ref = ref None in
  let commit_victim drv ~i ~j b =
    (* Earliest initiation: after b's last request before j.  A stream's
       window has forgotten positions below the cursor, which the
       [p >= i] guard absorbs exactly like a full-trace answer. *)
    let eligible_cursor =
      match Driver.prev_ref drv ~block:b ~before:j with
      | p when p >= i -> p + 1
      | _ -> i
    in
    pending := Some { block = Driver.request_at drv j; evict = b; eligible_cursor }
  in
  fun drv ->
    if not (Driver.disk_busy drv 0) then begin
      (match !pending with
       | Some _ -> ()
       | None ->
         let i = Driver.cursor drv in
         (match Driver.next_missing drv with
          | None -> ()
          | Some j ->
            if not (Driver.cache_full drv) then
              (* Spare capacity: fetch without eviction, no delay needed. *)
              pending := Some { block = Driver.request_at drv j; evict = -1; eligible_cursor = i }
            else begin
              (* One heap query decides both whether some cached block is
                 requested only after j (the furthest next reference from
                 the cursor lands past j) and, when d' = 0, the victim. *)
              match Driver.furthest_cached drv ~from:i with
              | Some (b0, nx) when nx > j ->
                let d' = Stdlib.min d (j - i) in
                if d' = 0 then commit_victim drv ~i ~j b0
                else
                  (match Driver.furthest_cached drv ~from:(i + d') with
                   | None -> ()
                   | Some (b, _) -> commit_victim drv ~i ~j b)
              | _ -> ()
            end));
      (match !pending with
       | Some c when Driver.cursor drv >= c.eligible_cursor ->
         Driver.start_fetch drv ~block:c.block
           ~evict:(if c.evict < 0 then None else Some c.evict);
         pending := None
       | _ -> ())
    end

let schedule ~d (inst : Instance.t) : Fetch_op.schedule =
  Driver.schedule (Driver.run inst ~decide:(rule ~d ()))

let stats ~d inst =
  Driver.validate ~name:(Printf.sprintf "Delay(%d)" d) inst (schedule ~d inst)

let elapsed_time ~d inst = (stats ~d inst).Simulate.elapsed_time
let stall_time ~d inst = (stats ~d inst).Simulate.stall_time
