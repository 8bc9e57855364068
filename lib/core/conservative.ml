(* The Conservative algorithm (Cao et al.), single disk.

   Perform exactly the same block replacements as the optimal offline
   paging algorithm MIN (Belady), initiating each fetch at the earliest
   point in time consistent with the chosen eviction: the evicted block
   must not be requested between the eviction and the fetched block's
   miss position, and the single disk serializes fetches.

   Cao et al.: Conservative's elapsed time is at most twice optimal, and
   its number of fetches is minimal (it never fetches more blocks than any
   feasible schedule). *)

type pending = {
  fetched : int;
  evicted : int option;
  miss_position : int;
  eligible_cursor : int;  (* fetch may start once cursor >= this *)
}

let plan (inst : Instance.t) : pending list =
  (* The whole cost of Conservative is the MIN precomputation; the decide
     loop just pops a queue. *)
  let min_result = Paging.min_offline inst in
  let nr = Next_ref.of_instance inst in
  List.map
    (fun (r : Paging.replacement) ->
       let eligible_cursor =
         match r.Paging.evicted with
         | None -> 0
         | Some e ->
           (* Last request to e strictly before the miss position; the
              eviction may only happen after it is served. *)
           (match Next_ref.prev_before nr e r.Paging.position with
            | -1 -> 0
            | p -> p + 1)
       in
       { fetched = r.Paging.fetched;
         evicted = r.Paging.evicted;
         miss_position = r.Paging.position;
         eligible_cursor })
    min_result.Paging.replacements

let rule (inst : Instance.t) =
  let queue = ref (plan inst) in
  fun d ->
    if not (Driver.disk_busy d 0) then begin
      match !queue with
      | [] -> ()
      | pending :: rest ->
        if Driver.cursor d >= pending.eligible_cursor then begin
          Driver.start_fetch d ~block:pending.fetched ~evict:pending.evicted;
          queue := rest
        end
    end

let schedule (inst : Instance.t) : Fetch_op.schedule =
  Driver.schedule (Driver.run inst ~decide:(rule inst))

let stats inst = Driver.validate ~name:"Conservative" inst (schedule inst)

let elapsed_time inst = (stats inst).Simulate.elapsed_time
let stall_time inst = (stats inst).Simulate.stall_time
let num_fetches inst = List.length (plan inst)
