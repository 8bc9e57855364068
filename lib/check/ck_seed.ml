(* The seed driver engine as a checking oracle.  See ck_seed.mli. *)

exception Mismatch of string

(* ------------------------------------------------------------------ *)
(* Fresh scans over the engine's public state. *)

let num_disks d = (Driver.instance d).Instance.num_disks

let disk_of d b =
  let inst = Driver.instance d in
  if inst.Instance.num_disks = 1 then 0 else inst.Instance.disk_of.(b)

(* First known position >= [from] whose block is neither cached nor in
   flight, on [disk] (any disk when [disk < 0]). *)
let scan_missing d ~disk from =
  let limit = Driver.lookahead_end d in
  let rec go p =
    if p >= limit then None
    else
      let b = Driver.request_at d p in
      if (not (Driver.in_cache d b || Driver.block_in_flight d b))
         && (disk < 0 || disk_of d b = disk)
      then Some p
      else go (p + 1)
  in
  go from

let cached_blocks d =
  let l = ref [] in
  for b = Driver.max_block_seen d downto 0 do
    if Driver.in_cache d b then l := b :: !l
  done;
  !l

(* Furthest next reference from [from] over the ascending [cached] list;
   a strict improvement is needed to replace, so ties go to the smaller
   id. *)
let scan_furthest d cached ~from =
  List.fold_left
    (fun best b ->
       let nx = Driver.next_ref d ~block:b ~from in
       match best with
       | Some (_, best_nx) when best_nx >= nx -> best
       | _ -> Some (b, nx))
    None cached

let show_pos = function None -> "none" | Some p -> Printf.sprintf "r%d" (p + 1)

let show_victim = function
  | None -> "none"
  | Some (b, nx) -> Printf.sprintf "b%d (next r%d)" b (nx + 1)

(* The engine's sentinel answers as options: a position or none, and a
   victim with its next reference from [from] or none. *)
let pos_answer p = if p < 0 then None else Some p

let victim_answer d ~from =
  let v = Driver.furthest_cached d ~from in
  if v < 0 then None else Some (v, Driver.next_ref d ~block:v ~from)

(* [query] names the query; it is only formatted on a mismatch. *)
let agree d query show ~fast ~scan =
  if fast <> scan then
    raise
      (Mismatch
         (Printf.sprintf "t=%d r%d: %s answered %s, a fresh scan %s" (Driver.time d)
            (Driver.cursor d + 1) (query ()) (show fast) (show scan)))

(* Every frontier and heap answer a rule may read at this instant: the
   next missing position from the cursor, globally and per idle disk,
   and the furthest cached block from every position up to the next
   miss or [reach] past the cursor (Delay's d' window lies there). *)
let cross_check d ~reach =
  let c = Driver.cursor d in
  let j = scan_missing d ~disk:(-1) c in
  agree d (fun () -> "next_missing") show_pos ~fast:(pos_answer (Driver.next_missing d)) ~scan:j;
  for disk = 0 to num_disks d - 1 do
    if not (Driver.disk_busy d disk) then
      agree d
        (fun () -> Printf.sprintf "next_missing_on_disk %d" disk)
        show_pos
        ~fast:(pos_answer (Driver.next_missing_on_disk d ~disk ~from:c))
        ~scan:(scan_missing d ~disk c)
  done;
  let cached = cached_blocks d in
  let last =
    Stdlib.min (c + reach) (match j with Some j -> j | None -> Driver.lookahead_end d - 1)
  in
  for from = c to last do
    agree d
      (fun () -> Printf.sprintf "furthest_cached ~from:r%d" (from + 1))
      show_victim
      ~fast:(victim_answer d ~from)
      ~scan:(scan_furthest d cached ~from)
  done

let some_disk_idle d =
  let rec go disk = disk < num_disks d && ((not (Driver.disk_busy d disk)) || go (disk + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* The seed loop. *)

let run ?(reach = 0) inst ~decide =
  let d = Driver.create inst in
  while not (Driver.finished d) do
    Driver.tick_completions d;
    (* By the decide contract a rule only acts while some disk is idle. *)
    if some_disk_idle d then cross_check d ~reach;
    decide d;
    Driver.advance d
  done;
  d

(* ------------------------------------------------------------------ *)
(* Seed rules. *)

(* Online's seed rule: score every cached block per decision and fold
   for the victim. *)
let online_rule (cfg : Online.config) (inst : Instance.t) =
  let n = Instance.length inst in
  let seq = inst.Instance.seq in
  fun d ->
    if not (Driver.disk_busy d 0) then begin
      let c = Driver.cursor d in
      let horizon = Stdlib.min n (c + cfg.Online.lookahead) in
      (* LRU recency for invisible blocks: the last request strictly
         before the cursor, or -1 if none yet - queried on demand rather
         than accumulated per instant, which also keeps this callback a
         pure function of the cursor/cache state (the driver's decide
         contract). *)
      let last_use b = Driver.prev_ref d ~block:b ~before:c in
      (* Next missing block, visible-window only.  With the disk idle on
         a single disk nothing is in flight, so the driver query's
         in-flight exclusion is vacuous and this matches a plain
         is-it-cached scan. *)
      match pos_answer (Driver.next_missing d) with
      | None -> ()
      | Some j when j >= horizon -> ()
      | Some j ->
        let i = c in
        let d' = Stdlib.min cfg.Online.delay (j - i) in
        (* Furthest-next-reference within the window measured after i + d';
           invisible blocks count as infinitely far, least-recently-used
           first. *)
        let candidates = Driver.cache_list d in
        let score b =
          let nx = Driver.next_ref d ~block:b ~from:(i + d') in
          if nx < horizon then (0, nx, 0) else (1, - (last_use b), b)
          (* visible blocks score below invisible; among invisible, older
             last use = better victim *)
        in
        let better a b =
          let (ka, sa, ta) = score a and (kb, sb, tb) = score b in
          if ka <> kb then ka > kb
          else if ka = 0 then sa > sb || (sa = sb && ta > tb)
          else sa > sb || (sa = sb && ta > tb)
        in
        if not (Driver.cache_full d) then
          (* a free slot needs no victim - in particular on a cold cache,
             where there are no candidates at all *)
          Driver.start_fetch d ~block:seq.(j) ~evict:None
        else
          (match candidates with
           | [] -> ()
           | first :: rest ->
             let victim = List.fold_left (fun acc b -> if better b acc then b else acc) first rest in
             let vk, vnx, _ = score victim in
             if (vk = 1 || vnx > j)
                && Driver.next_ref d ~block:victim ~from:i > j then
               (* victim not requested before the miss (as far as we can
                  see), including inside the delay window [i, i + d') -
                  otherwise wait for those requests to be served first *)
               Driver.start_fetch d ~block:seq.(j) ~evict:(Some victim))
    end

type committed = {
  block : int;  (* block to fetch (the one missed at position j) *)
  evict : int;
  eligible_cursor : int;
}

(* Delay's seed rule: one heap query for "is some cached block requested
   only after j", a second for the victim.  [d] is validated by
   [Delay.schedule], which the oracle runs first. *)
let delay_rule ~d () =
  let pending : committed option ref = ref None in
  let commit_victim drv ~i ~j b =
    (* Earliest initiation: after b's last request before j. *)
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
         (match pos_answer (Driver.next_missing drv) with
          | None -> ()
          | Some j ->
            if not (Driver.cache_full drv) then
              (* Spare capacity: fetch without eviction, no delay needed. *)
              pending := Some { block = Driver.request_at drv j; evict = -1; eligible_cursor = i }
            else begin
              (* Is some cached block requested only at or after position
                 j?  Equivalent to the furthest next reference (measured
                 from the cursor) landing past j - one heap query instead
                 of a scan over the whole cache. *)
              let exists_late =
                match victim_answer drv ~from:i with
                | Some (_, nx) -> nx > j
                | None -> false
              in
              if exists_late then begin
                let d' = Stdlib.min d (j - i) in
                match victim_answer drv ~from:(i + d') with
                | None -> ()
                | Some (b, _) -> commit_victim drv ~i ~j b
              end
            end));
      (match !pending with
       | Some c when Driver.cursor drv >= c.eligible_cursor ->
         Driver.start_fetch drv ~block:c.block
           ~evict:(if c.evict < 0 then None else Some c.evict);
         pending := None
       | _ -> ())
    end

(* ------------------------------------------------------------------ *)
(* Production against the seed loop. *)

type rule = {
  name : string;
  schedule : Instance.t -> Fetch_op.schedule;
  seed : Instance.t -> Driver.t -> unit;
  reach : Instance.t -> int;
  plans_min : bool;
}

let rule ?(reach = fun _ -> 0) ?(plans_min = false) name ~schedule ~seed =
  { name; schedule; seed; reach; plans_min }

(* Belady's MIN by a scan over the cache at every miss: the victim is
   the fold's strict maximum of next reference, so ties go to the
   smaller id.  No telemetry: it only checks [Paging.min_offline]. *)
let min_scan (inst : Instance.t) : Paging.result =
  let k = inst.Instance.cache_size in
  let nr = Next_ref.of_instance inst in
  let in_cache = Array.make (Instance.num_blocks inst) false in
  let cache = ref [] in
  List.iter
    (fun b ->
       in_cache.(b) <- true;
       cache := b :: !cache)
    inst.Instance.initial_cache;
  let replacements = ref [] in
  let misses = ref 0 in
  for i = 0 to Instance.length inst - 1 do
    let b = inst.Instance.seq.(i) in
    if not in_cache.(b) then begin
      incr misses;
      let evicted =
        if List.length !cache < k then None
        else begin
          let score b = Next_ref.next_at_or_after nr b i in
          let v =
            List.fold_left
              (fun best b ->
                 let sb = score b and sbest = score best in
                 if sb > sbest || (sb = sbest && b < best) then b else best)
              (List.hd !cache) (List.tl !cache)
          in
          in_cache.(v) <- false;
          cache := List.filter (fun x -> x <> v) !cache;
          Some v
        end
      in
      in_cache.(b) <- true;
      cache := b :: !cache;
      replacements := { Paging.position = i; fetched = b; evicted } :: !replacements
    end
  done;
  { Paging.replacements = List.rev !replacements;
    misses = !misses;
    final_cache = List.sort compare !cache }

let first_divergence (a : Fetch_op.schedule) (b : Fetch_op.schedule) =
  let show = function
    | [] -> "end of schedule"
    | op :: _ -> Format.asprintf "%a" Fetch_op.pp op
  in
  let rec go i a b =
    match (a, b) with
    | x :: a', y :: b' when x = y -> go (i + 1) a' b'
    | _ -> (i, show a, show b)
  in
  go 0 a b

let check_one inst r =
  match r.schedule inst with
  | exception Simulate.Internal_error { reason; _ } ->
    Ck_oracle.failf "%s: production run: %s" r.name reason
  | fast -> (
    match Driver.schedule (run ~reach:(r.reach inst) inst ~decide:(r.seed inst)) with
    | exception Mismatch msg -> Ck_oracle.failf ~schedule:fast "%s: seed loop: %s" r.name msg
    | exception Simulate.Internal_error { reason; _ } ->
      Ck_oracle.failf ~schedule:fast "%s: seed loop: %s" r.name reason
    | seed when seed <> fast ->
      let i, f, s = first_divergence fast seed in
      Ck_oracle.failf ~schedule:fast
        "%s: schedules diverge at op %d (%d vs %d ops): production %s, seed loop %s" r.name i
        (List.length fast) (List.length seed) f s
    | _ ->
      if r.plans_min && Paging.min_offline inst <> min_scan inst then
        Ck_oracle.failf ~schedule:fast "%s: min_offline differs from min_scan" r.name
      else Ck_oracle.Pass)

let aggressive =
  rule "aggressive" ~schedule:Aggressive.schedule ~seed:(fun _ -> Aggressive.decide)

let conservative =
  rule "conservative" ~plans_min:true ~schedule:Conservative.schedule ~seed:Conservative.rule

let delay d =
  rule (Printf.sprintf "delay(%d)" d) ~reach:(fun _ -> d) ~schedule:(Delay.schedule ~d)
    ~seed:(fun _ -> delay_rule ~d ())

let combination =
  rule "combination"
    ~reach:(fun inst ->
      match Combination.choose ~k:inst.Instance.cache_size ~f:inst.Instance.fetch_time with
      | Combination.Use_delay d -> d
      | Combination.Use_aggressive -> 0)
    ~schedule:Combination.schedule ~seed:Combination.rule

let fixed_horizon = rule "fixed_horizon" ~schedule:Fixed_horizon.schedule ~seed:Fixed_horizon.rule

let online (cfg : Online.config) =
  rule
    (if cfg.Online.delay = 0 then Printf.sprintf "online(la=%d)" cfg.Online.lookahead
     else Printf.sprintf "online(la=%d,d=%d)" cfg.Online.lookahead cfg.Online.delay)
    ~reach:(fun _ -> cfg.Online.delay)
    ~schedule:(Online.schedule cfg) ~seed:(online_rule cfg)

let aggressive_d =
  rule "aggressive-D" ~schedule:Parallel_greedy.aggressive_schedule
    ~seed:(fun _ -> Parallel_greedy.aggressive_decide)

let conservative_d =
  rule "conservative-D" ~plans_min:true ~schedule:Parallel_greedy.conservative_schedule
    ~seed:Parallel_greedy.conservative_rule

(* Production harvests Reverse Aggressive's hints from an Aggressive pass
   over the reversed trace on Driver.run.  The seed side first checks
   that pass against the seed loop, so an engine defect on the reversed
   trace shows even where the hints absorb it. *)
let reverse_aggressive =
  rule "reverse_aggressive" ~schedule:Reverse_aggressive.schedule ~seed:(fun inst ->
      let pass = if inst.Instance.num_disks = 1 then aggressive else aggressive_d in
      match check_one (Reverse_aggressive.reverse_instance inst) pass with
      | Ck_oracle.Fail { msg; _ } -> raise (Mismatch ("reverse pass: " ^ msg))
      | Ck_oracle.Pass | Ck_oracle.Skip _ -> Reverse_aggressive.rule inst)

let check inst rules =
  let rec go = function
    | [] -> Ck_oracle.Pass
    | r :: rest -> (
      match check_one inst r with Ck_oracle.Pass -> go rest | outcome -> outcome)
  in
  go rules
