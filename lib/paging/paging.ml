(* Classic (pure) paging algorithms.

   These operate in the demand-paging model with unit-cost misses and no
   timing: they only decide *which* block to evict on each miss.  The
   integrated-prefetching algorithm Conservative (Cao et al.) is defined as
   "perform exactly the same replacements as Belady's MIN, fetching at the
   earliest consistent time", so MIN's replacement sequence is a first-class
   object here.  LRU and FIFO are included as context baselines and for
   tests (MIN must never miss more than either). *)

type replacement = {
  position : int;  (* 0-based index of the missed request *)
  fetched : Instance.block;
  evicted : Instance.block option;  (* None while the cache is not full *)
}

type result = {
  replacements : replacement list;  (* in request order *)
  misses : int;
  final_cache : Instance.block list;
}

(* Per-policy hit/miss/eviction counters, reported once per run (the
   counter lookup is inside the enabled-gate, so disabled runs pay one
   branch). *)
let report policy ~n (r : result) : result =
  if Telemetry.enabled () then begin
    let c suffix = Telemetry.counter (Printf.sprintf "paging.%s.%s" policy suffix) in
    Telemetry.add (c "requests") n;
    Telemetry.add (c "misses") r.misses;
    Telemetry.add (c "hits") (n - r.misses);
    Telemetry.add (c "evictions")
      (List.length (List.filter (fun rep -> rep.evicted <> None) r.replacements))
  end;
  r

(* Belady's MIN: evict the cached block whose next reference is furthest
   in the future (never-again blocks first; ties broken by smallest id for
   determinism), in O((n + misses) log k) via the lazy-invalidation
   eviction heap ({!Evict_heap}, ordered key desc / block asc - exactly
   that tie-break).

   Heap invariant (the driver's, transplanted to the demand model): each
   resident block's live key is its next reference at or after the scan
   position.  A hit at position [i] can only change the served block's
   key, restored in O(1) from the precomputed [next_same] array; a miss
   inserts the fetched block keyed by its next occurrence after [i].
   Any other resident block was last touched at some q < i with no
   reference in (q, i], so its key - the first reference after q - is
   still the first reference at or after the miss position.  The heap
   top is therefore the furthest-next-reference block; {!Ck_seed.min_scan}
   keeps the per-miss scan over the cache as its oracle, and test_paging
   pins the two byte-identical on the fuzz corpus. *)
let min_offline (inst : Instance.t) : result =
  let n = Instance.length inst in
  let num_blocks = Instance.num_blocks inst in
  let k = inst.Instance.cache_size in
  let nr = Next_ref.of_instance inst in
  let in_cache = Array.make num_blocks false in
  let heap = Evict_heap.create ~num_blocks in
  let count = ref 0 in
  List.iter
    (fun b ->
       in_cache.(b) <- true;
       incr count;
       Evict_heap.add heap ~block:b ~key:(Next_ref.next_at_or_after nr b 0))
    inst.Instance.initial_cache;
  let replacements = ref [] in
  let misses = ref 0 in
  for i = 0 to n - 1 do
    let b = inst.Instance.seq.(i) in
    if in_cache.(b) then
      (* Hit: re-key the served block to its next occurrence. *)
      Evict_heap.add heap ~block:b ~key:(Next_ref.next_after_same nr i)
    else begin
      incr misses;
      let evicted =
        if !count < k then begin
          incr count;
          None
        end
        else begin
          let v = Evict_heap.top heap in
          if v < 0 then None  (* k = 0 never happens: Instance validates k >= 1 *)
          else begin
            in_cache.(v) <- false;
            Evict_heap.remove heap ~block:v;
            Some v
          end
        end
      in
      in_cache.(b) <- true;
      Evict_heap.add heap ~block:b ~key:(Next_ref.next_after_same nr i);
      replacements := { position = i; fetched = b; evicted } :: !replacements
    end
  done;
  let final = ref [] in
  for b = num_blocks - 1 downto 0 do
    if in_cache.(b) then final := b :: !final
  done;
  report "min" ~n
    { replacements = List.rev !replacements; misses = !misses; final_cache = !final }

(* LRU: evict the least recently used block (ties towards smaller ids). *)
let lru (inst : Instance.t) : result =
  let n = Instance.length inst in
  let num_blocks = Instance.num_blocks inst in
  let k = inst.Instance.cache_size in
  let last_use = Array.make num_blocks (-1) in
  let in_cache = Array.make num_blocks false in
  let cache = ref [] in
  List.iter
    (fun b ->
       in_cache.(b) <- true;
       cache := b :: !cache)
    inst.Instance.initial_cache;
  let replacements = ref [] in
  let misses = ref 0 in
  for i = 0 to n - 1 do
    let b = inst.Instance.seq.(i) in
    if not in_cache.(b) then begin
      incr misses;
      let evicted =
        if List.length !cache < k then None
        else begin
          let v =
            List.fold_left
              (fun best x ->
                 if last_use.(x) < last_use.(best)
                 || (last_use.(x) = last_use.(best) && x < best)
                 then x
                 else best)
              (List.hd !cache) (List.tl !cache)
          in
          in_cache.(v) <- false;
          cache := List.filter (fun x -> x <> v) !cache;
          Some v
        end
      in
      in_cache.(b) <- true;
      cache := b :: !cache;
      replacements := { position = i; fetched = b; evicted } :: !replacements
    end;
    last_use.(b) <- i
  done;
  report "lru" ~n
    { replacements = List.rev !replacements; misses = !misses; final_cache = List.sort compare !cache }

let fifo (inst : Instance.t) : result =
  let num_blocks = Instance.num_blocks inst in
  let arrival = Array.make num_blocks (-1) in
  (* Initial blocks arrived "before time 0", in list order. *)
  List.iteri (fun i b -> arrival.(b) <- i - List.length inst.Instance.initial_cache) inst.Instance.initial_cache;
  let counter = ref 0 in
  let choose_victim ~position:_ ~cache =
    List.fold_left
      (fun best x ->
         if arrival.(x) < arrival.(best) || (arrival.(x) = arrival.(best) && x < best) then x
         else best)
      (List.hd cache) (List.tl cache)
  in
  let n = Instance.length inst in
  let k = inst.Instance.cache_size in
  let in_cache = Array.make num_blocks false in
  let cache = ref [] in
  List.iter
    (fun b ->
       in_cache.(b) <- true;
       cache := b :: !cache)
    inst.Instance.initial_cache;
  let replacements = ref [] in
  let misses = ref 0 in
  for i = 0 to n - 1 do
    let b = inst.Instance.seq.(i) in
    if not in_cache.(b) then begin
      incr misses;
      let evicted =
        if List.length !cache < k then None
        else begin
          let v = choose_victim ~position:i ~cache:!cache in
          in_cache.(v) <- false;
          cache := List.filter (fun x -> x <> v) !cache;
          Some v
        end
      in
      in_cache.(b) <- true;
      arrival.(b) <- !counter;
      incr counter;
      cache := b :: !cache;
      replacements := { position = i; fetched = b; evicted } :: !replacements
    end
  done;
  report "fifo" ~n
    { replacements = List.rev !replacements; misses = !misses; final_cache = List.sort compare !cache }

(* CLOCK (second-chance): the classic practical LRU approximation.  Each
   resident block has a reference bit; the hand sweeps circularly, clearing
   bits until it finds an unreferenced victim. *)
let clock (inst : Instance.t) : result =
  let n = Instance.length inst in
  let num_blocks = Instance.num_blocks inst in
  let k = inst.Instance.cache_size in
  let in_cache = Array.make num_blocks false in
  let refbit = Array.make num_blocks false in
  let frames = Array.make k (-1) in
  let hand = ref 0 in
  let used = ref 0 in
  List.iteri
    (fun i b ->
       in_cache.(b) <- true;
       frames.(i) <- b;
       incr used)
    inst.Instance.initial_cache;
  let replacements = ref [] in
  let misses = ref 0 in
  for i = 0 to n - 1 do
    let b = inst.Instance.seq.(i) in
    if in_cache.(b) then refbit.(b) <- true
    else begin
      incr misses;
      let evicted =
        if !used < k then begin
          frames.(!used) <- b;
          incr used;
          None
        end
        else begin
          (* Sweep until a frame with a clear bit is found. *)
          let rec sweep () =
            let v = frames.(!hand) in
            if refbit.(v) then begin
              refbit.(v) <- false;
              hand := (!hand + 1) mod k;
              sweep ()
            end
            else begin
              in_cache.(v) <- false;
              frames.(!hand) <- b;
              hand := (!hand + 1) mod k;
              v
            end
          in
          Some (sweep ())
        end
      in
      in_cache.(b) <- true;
      refbit.(b) <- true;
      replacements := { position = i; fetched = b; evicted } :: !replacements
    end
  done;
  let final = Array.to_list (Array.sub frames 0 !used) |> List.filter (fun b -> b >= 0) in
  report "clock" ~n
    { replacements = List.rev !replacements; misses = !misses; final_cache = List.sort compare final }

(* The randomized MARKING algorithm (Fiat et al.): O(log k)-competitive.
   Blocks are marked on access; on a miss with a full cache, a uniformly
   random unmarked block is evicted; when everything is marked a new phase
   begins with all marks cleared. *)
let marking ?(seed = 1) (inst : Instance.t) : result =
  let st = Random.State.make [| seed; 0x6d61726b |] in
  let n = Instance.length inst in
  let num_blocks = Instance.num_blocks inst in
  let k = inst.Instance.cache_size in
  let in_cache = Array.make num_blocks false in
  let marked = Array.make num_blocks false in
  let cache = ref [] in
  List.iter
    (fun b ->
       in_cache.(b) <- true;
       cache := b :: !cache)
    inst.Instance.initial_cache;
  let replacements = ref [] in
  let misses = ref 0 in
  for i = 0 to n - 1 do
    let b = inst.Instance.seq.(i) in
    if not in_cache.(b) then begin
      incr misses;
      let evicted =
        if List.length !cache < k then None
        else begin
          let unmarked () = List.filter (fun x -> not marked.(x)) !cache in
          (* New phase when everything is marked. *)
          let candidates =
            match unmarked () with
            | [] ->
              List.iter (fun x -> marked.(x) <- false) !cache;
              unmarked ()
            | l -> l
          in
          let v = List.nth candidates (Random.State.int st (List.length candidates)) in
          in_cache.(v) <- false;
          cache := List.filter (fun x -> x <> v) !cache;
          Some v
        end
      in
      in_cache.(b) <- true;
      cache := b :: !cache;
      replacements := { position = i; fetched = b; evicted } :: !replacements
    end;
    marked.(b) <- true
  done;
  report "marking" ~n
    { replacements = List.rev !replacements; misses = !misses; final_cache = List.sort compare !cache }

let pp_replacement fmt r =
  Format.fprintf fmt "@@r%d fetch b%d evict %s" (r.position + 1) r.fetched
    (match r.evicted with None -> "-" | Some b -> "b" ^ string_of_int b)
