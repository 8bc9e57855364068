(* Differential tests for the branch-and-bound exact-optimum engine.

   The pruning rules (incumbent seeding, admissible lower bounds,
   cache-mask dominance) must leave the returned stall values
   bit-identical to the unpruned searches they replaced.  This file keeps
   compact copies of the three pre-engine reference solvers (memoized
   recursion for the greedy-content DP, Set-as-priority-queue Dijkstra
   for the exhaustive single and parallel searches) and replays the fuzz
   corpus (Ck_gen, seed 42 - the same generator and seed CI fuzzes with)
   through both. *)

(* ------------------------------------------------------------------ *)
(* Reference 1: greedy-content DP by memoized recursion. *)

let ref_opt_single (inst : Instance.t) : int =
  let n = Instance.length inst in
  let num_blocks = Instance.num_blocks inst in
  let seq = inst.Instance.seq in
  let k = inst.Instance.cache_size in
  let f = inst.Instance.fetch_time in
  let nr = Next_ref.of_instance inst in
  let initial_mask = List.fold_left (fun m b -> m lor (1 lsl b)) 0 inst.Instance.initial_cache in
  let memo : (int * int, int) Hashtbl.t = Hashtbl.create 4096 in
  let popcount m =
    let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
    go m 0
  in
  let next_missing mask c =
    let rec scan i =
      if i >= n then None else if mask land (1 lsl seq.(i)) = 0 then Some i else scan (i + 1)
    in
    scan c
  in
  let furthest mask c =
    let best = ref (-1) and best_next = ref (-1) in
    for b = 0 to num_blocks - 1 do
      if mask land (1 lsl b) <> 0 then begin
        let nx = Next_ref.next_at_or_after nr b c in
        if nx > !best_next then begin
          best_next := nx;
          best := b
        end
      end
    done;
    (!best, !best_next)
  in
  let rec search c mask =
    if c >= n then 0
    else begin
      match Hashtbl.find_opt memo (c, mask) with
      | Some v -> v
      | None ->
        let v =
          match next_missing mask c with
          | None -> 0
          | Some p ->
            let fetch_cost =
              let mask', ok =
                if popcount mask < k then (mask, true)
                else begin
                  let e, e_next = furthest mask c in
                  if e >= 0 && e_next > p then (mask land lnot (1 lsl e), true) else (mask, false)
                end
              in
              if not ok then max_int
              else begin
                let c', stall = Opt.roll_forward inst ~c ~mask:mask' ~f in
                let rest = search c' (mask' lor (1 lsl seq.(p))) in
                if rest = max_int then max_int else stall + rest
              end
            in
            let serve_cost =
              if mask land (1 lsl seq.(c)) <> 0 then search (c + 1) mask else max_int
            in
            Stdlib.min fetch_cost serve_cost
        in
        Hashtbl.replace memo (c, mask) v;
        v
    end
  in
  search 0 initial_mask

(* ------------------------------------------------------------------ *)
(* Reference 2: assumption-free eviction search by Set-PQ Dijkstra
   (free-eviction mode). *)

module Pq1 = Set.Make (struct
  type t = int * int * int

  let compare = compare
end)

let ref_opt_exhaustive (inst : Instance.t) : int =
  let n = Instance.length inst in
  let num_blocks = Instance.num_blocks inst in
  let seq = inst.Instance.seq in
  let k = inst.Instance.cache_size in
  let f = inst.Instance.fetch_time in
  let initial_mask = List.fold_left (fun m b -> m lor (1 lsl b)) 0 inst.Instance.initial_cache in
  let popcount m =
    let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
    go m 0
  in
  let next_missing mask c =
    let rec scan i =
      if i >= n then None else if mask land (1 lsl seq.(i)) = 0 then Some i else scan (i + 1)
    in
    scan c
  in
  let dist : (int * int, int) Hashtbl.t = Hashtbl.create 4096 in
  let pq = ref (Pq1.singleton (0, 0, initial_mask)) in
  let push d c mask =
    match Hashtbl.find_opt dist (c, mask) with
    | Some d' when d' <= d -> ()
    | _ ->
      Hashtbl.replace dist (c, mask) d;
      pq := Pq1.add (d, c, mask) !pq
  in
  Hashtbl.replace dist (0, initial_mask) 0;
  let answer = ref None in
  while !answer = None do
    match Pq1.min_elt_opt !pq with
    | None -> failwith "ref_opt_exhaustive: exhausted queue"
    | Some ((d, c, mask) as node) ->
      pq := Pq1.remove node !pq;
      if Hashtbl.find_opt dist (c, mask) = Some d then begin
        match next_missing mask c with
        | None -> answer := Some d
        | Some p ->
          let fetch_from mask' =
            let c', stall = Opt.roll_forward inst ~c ~mask:mask' ~f in
            push (d + stall) c' (mask' lor (1 lsl seq.(p)))
          in
          if popcount mask < k then fetch_from mask;
          if popcount mask >= k then
            for e = 0 to num_blocks - 1 do
              if mask land (1 lsl e) <> 0 then fetch_from (mask land lnot (1 lsl e))
            done;
          if mask land (1 lsl seq.(c)) <> 0 then push d (c + 1) mask
      end
  done;
  Option.get !answer

(* ------------------------------------------------------------------ *)
(* Reference 3: parallel timeline search by Set-PQ Dijkstra
   (parallel engine). *)

type flight = (int * int) option

module Pq2 = Set.Make (struct
  type t = int * (int * int * flight array)

  let compare = compare
end)

let ref_opt_parallel ?(extra_slots = 0) (inst : Instance.t) : int =
  let n = Instance.length inst in
  let num_blocks = Instance.num_blocks inst in
  let seq = inst.Instance.seq in
  let k = inst.Instance.cache_size + extra_slots in
  let f = inst.Instance.fetch_time in
  let nd = inst.Instance.num_disks in
  let initial_mask = List.fold_left (fun m b -> m lor (1 lsl b)) 0 inst.Instance.initial_cache in
  let popcount m =
    let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
    go m 0
  in
  let next_missing_on_disk mask flights disk c =
    let in_flight b = Array.exists (function Some (b', _) -> b' = b | None -> false) flights in
    let rec scan i =
      if i >= n then None
      else begin
        let b = seq.(i) in
        if mask land (1 lsl b) = 0 && (not (in_flight b)) && inst.Instance.disk_of.(b) = disk
        then Some b
        else scan (i + 1)
      end
    in
    scan c
  in
  let dist = Hashtbl.create 4096 in
  let start = (0, initial_mask, Array.make nd None) in
  Hashtbl.replace dist start 0;
  let pq = ref (Pq2.singleton (0, start)) in
  let push d state =
    match Hashtbl.find_opt dist state with
    | Some d' when d' <= d -> ()
    | _ ->
      Hashtbl.replace dist state d;
      pq := Pq2.add (d, state) !pq
  in
  let answer = ref None in
  while !answer = None do
    match Pq2.min_elt_opt !pq with
    | None -> failwith "ref_opt_parallel: exhausted queue"
    | Some ((d, ((c, mask, flights) as state)) as node) ->
      pq := Pq2.remove node !pq;
      if Hashtbl.find_opt dist state = Some d then begin
        if c >= n then answer := Some d
        else begin
          let options_for_disk disk =
            match flights.(disk) with
            | Some _ -> [ `Keep ]
            | None ->
              (match next_missing_on_disk mask flights disk c with
               | None -> [ `Keep ]
               | Some b ->
                 let evictions = ref [] in
                 for e = 0 to num_blocks - 1 do
                   if mask land (1 lsl e) <> 0 then evictions := `Start (b, Some e) :: !evictions
                 done;
                 `Keep :: `Start (b, None) :: !evictions)
          in
          let rec combos disk acc =
            if disk >= nd then [ acc ]
            else
              List.concat_map (fun opt -> combos (disk + 1) ((disk, opt) :: acc)) (options_for_disk disk)
          in
          List.iter
            (fun combo ->
               let mask' = ref mask in
               let flights' = Array.copy flights in
               let in_flight_cnt =
                 ref (Array.fold_left (fun a x -> if x = None then a else a + 1) 0 flights)
               in
               let ok = ref true in
               List.iter
                 (fun (disk, opt) ->
                    match opt with
                    | `Keep -> ()
                    | `Start (b, evict) ->
                      (match evict with
                       | Some e ->
                         if !mask' land (1 lsl e) = 0 then ok := false
                         else mask' := !mask' land lnot (1 lsl e)
                       | None -> ());
                      if !ok then begin
                        flights'.(disk) <- Some (b, f);
                        incr in_flight_cnt
                      end)
                 combo;
               if !ok && popcount !mask' + !in_flight_cnt <= k then begin
                 let served = !mask' land (1 lsl seq.(c)) <> 0 in
                 let c' = if served then c + 1 else c in
                 let cost = if served then 0 else 1 in
                 if served || !in_flight_cnt > 0 then begin
                   let mask'' = ref !mask' in
                   let flights'' =
                     Array.map
                       (function
                         | Some (b, 1) ->
                           mask'' := !mask'' lor (1 lsl b);
                           None
                         | Some (b, r) -> Some (b, r - 1)
                         | None -> None)
                       flights'
                   in
                   push (d + cost) (c', !mask'', flights'')
                 end
               end)
            (combos 0 [])
        end
      end
  done;
  Option.get !answer

(* ------------------------------------------------------------------ *)
(* Corpus agreement: every fuzz-corpus case small enough for a reference
   solver must get the identical stall value from the engine. *)

let solve_ok what solve =
  match solve () with
  | (o : Opt.outcome) -> o
  | exception Opt.Solver_failure _ ->
    Alcotest.failf "%s: engine failed where the reference succeeds" what

let corpus_cases = 600

let test_corpus_agreement () =
  let singles = ref 0 and exhaustives = ref 0 and parallels = ref 0 in
  for index = 0 to corpus_cases - 1 do
    let case = Ck_gen.generate ~seed:42 ~index in
    let inst = case.Ck_gen.inst in
    let n = Instance.length inst in
    let blocks = Instance.num_blocks inst in
    let d = inst.Instance.num_disks in
    if d = 1 && n <= Ck_oracle.differential_single_ceiling
       && blocks <= Ck_oracle.differential_single_blocks
    then begin
      incr singles;
      let o = solve_ok case.Ck_gen.descr (fun () -> Opt.solve_single inst) in
      let expect = ref_opt_single inst in
      if o.Opt.stall <> expect then
        Alcotest.failf "case %d (%s): engine DP stall %d, reference %d" index
          case.Ck_gen.descr o.Opt.stall expect;
      (* The witness must replay to exactly the claimed stall. *)
      (match o.Opt.schedule with
       | None -> Alcotest.failf "case %d: no witness" index
       | Some sched -> (
         match Simulate.stall_time inst sched with
         | Error e ->
           Alcotest.failf "case %d (%s): witness rejected at t=%d: %s" index
             case.Ck_gen.descr e.Simulate.at_time e.Simulate.reason
         | Ok realized ->
           if realized <> o.Opt.stall then
             Alcotest.failf "case %d (%s): witness stall %d <> claimed %d" index
               case.Ck_gen.descr realized o.Opt.stall));
      incr exhaustives;
      let ox = solve_ok case.Ck_gen.descr (fun () -> Opt.solve_single ~free_evict:true inst) in
      let expect_x = ref_opt_exhaustive inst in
      if ox.Opt.stall <> expect_x then
        Alcotest.failf "case %d (%s): engine exhaustive stall %d, reference %d" index
          case.Ck_gen.descr ox.Opt.stall expect_x
    end;
    if n <= 12 && blocks <= 8 && d <= 2 then begin
      incr parallels;
      let o = solve_ok case.Ck_gen.descr (fun () -> Opt.solve_parallel inst) in
      let expect = ref_opt_parallel inst in
      if o.Opt.stall <> expect then
        Alcotest.failf "case %d (%s): engine parallel stall %d, reference %d" index
          case.Ck_gen.descr o.Opt.stall expect;
      let extra = 2 * (d - 1) in
      let oe = solve_ok case.Ck_gen.descr (fun () -> Opt.solve_parallel ~extra_slots:extra inst) in
      let expect_e = ref_opt_parallel ~extra_slots:extra inst in
      if oe.Opt.stall <> expect_e then
        Alcotest.failf "case %d (%s): engine parallel(+%d slots) stall %d, reference %d"
          index case.Ck_gen.descr extra oe.Opt.stall expect_e
    end
  done;
  (* The gates must not be accidentally dead. *)
  Alcotest.(check bool) "single-disk coverage" true (!singles >= 50);
  Alcotest.(check bool) "exhaustive coverage" true (!exhaustives >= 50);
  Alcotest.(check bool) "parallel coverage" true (!parallels >= 50)

(* ------------------------------------------------------------------ *)
(* Budget, stats and the lifted block-count guard. *)

let cold_instance () =
  Instance.single_disk ~k:2 ~fetch_time:4 ~initial_cache:[]
    [| 0; 1; 2; 3; 4; 5; 0; 1; 2; 3 |]

let test_budget_exhausted () =
  let inst = cold_instance () in
  (match Opt.solve_single ~node_budget:1 inst with
   | exception Opt.Solver_failure { failure = Opt.Budget_exhausted { budget; expanded }; _ } ->
     Alcotest.(check int) "budget echoed" 1 budget;
     Alcotest.(check bool) "expanded counted" true (expanded >= 1)
   | exception Opt.Solver_failure { failure = Opt.Infeasible; _ } ->
     Alcotest.fail "unexpected Infeasible"
   | _ -> Alcotest.fail "restricted search finished within 1 node");
  (match Opt.solve_single ~node_budget:1 ~free_evict:true inst with
   | exception Opt.Solver_failure { failure = Opt.Budget_exhausted _; _ } -> ()
   | _ -> Alcotest.fail "exhaustive search finished within 1 node");
  let pinst =
    Instance.parallel ~k:2 ~fetch_time:4 ~num_disks:2
      ~disk_of:[| 0; 1; 0; 1; 0; 1 |] ~initial_cache:[]
      [| 0; 1; 2; 3; 4; 5 |]
  in
  (match Opt.solve_parallel ~node_budget:1 pinst with
   | exception Opt.Solver_failure { failure = Opt.Budget_exhausted _; _ } -> ()
   | _ -> Alcotest.fail "parallel search finished within 1 node");
  (* Unbudgeted, the same search succeeds. *)
  Alcotest.(check bool) "unbudgeted parallel search succeeds" true
    (try
       ignore (Opt.solve_parallel pinst);
       true
     with Opt.Solver_failure _ -> false)

(* Past the engine's limits the instance itself is rejected, as a typed
   input error: more than [Opt.max_blocks] distinct blocks on one disk,
   and a parallel shape whose packed (cursor, cache, in-flight) state
   would overflow an OCaml int. *)
let test_limits_are_typed () =
  let rejects what solve =
    match solve () with
    | exception Instance.Invalid _ -> ()
    | exception e ->
      Alcotest.failf "%s: raised %s, not Instance.Invalid" what (Printexc.to_string e)
    | (_ : Opt.outcome) -> Alcotest.failf "%s: solved past the engine's limits" what
  in
  let wide =
    Instance.single_disk ~k:4 ~fetch_time:2 ~initial_cache:[] (Array.init 70 (fun i -> i))
  in
  rejects "single disk, 70 blocks" (fun () -> Opt.solve_single wide);
  rejects "single disk, 70 blocks, free eviction" (fun () ->
      Opt.solve_single ~free_evict:true wide);
  rejects "parallel search, 70 blocks" (fun () -> Opt.solve_parallel wide);
  (* 62 blocks at F = 8 on 30 disks: (62 * 8 + 1)^30 in-flight codes. *)
  let packed =
    Workload.parallel_instance ~k:3 ~fetch_time:8 ~num_disks:30
      ~layout:(fun ~num_blocks ~num_disks -> Workload.striped_layout ~num_blocks ~num_disks)
      (Array.init 62 (fun i -> i))
  in
  rejects "packed state overflow" (fun () -> Opt.solve_parallel packed);
  rejects "packed state overflow via Opt.solve" (fun () -> Opt.solve packed)

let test_stats_sanity () =
  let inst = cold_instance () in
  let o = solve_ok "stats" (fun () -> Opt.solve_single inst) in
  let s = o.Opt.stats in
  Alcotest.(check bool) "expanded positive" true (s.Opt.expanded > 0);
  Alcotest.(check bool) "counters non-negative" true
    (s.Opt.pruned >= 0 && s.Opt.dominated >= 0 && s.Opt.deduped >= 0);
  (match s.Opt.incumbent_stall with
   | None -> Alcotest.fail "no incumbent on a feasible instance"
   | Some ub ->
     Alcotest.(check bool) "incumbent is an upper bound" true (o.Opt.stall <= ub);
     Alcotest.(check bool) "improved iff beat incumbent" true
       (s.Opt.improved = (o.Opt.stall < ub)))

(* More than 30 distinct blocks: the parallel search accepts up to 62
   and must agree with the single-disk DP when D = 1. *)
let test_wide_mask_parallel () =
  let n = 32 in
  let seq = Array.init n (fun i -> i) in
  let inst = Instance.single_disk ~k:8 ~fetch_time:2 ~initial_cache:[ 0; 1; 2; 3; 4; 5; 6; 7 ] seq in
  let o = solve_ok "wide mask" (fun () -> Opt.solve_parallel inst) in
  Alcotest.(check int) "agrees with single-disk DP" ((Opt.solve_single inst).Opt.stall) o.Opt.stall

let test_ceilings_floor () =
  Alcotest.(check bool) "single ceiling >= 18" true
    (Ck_oracle.differential_single_ceiling >= 18);
  Alcotest.(check bool) "parallel ceiling >= 14" true
    (Ck_oracle.differential_parallel_ceiling >= 14);
  Alcotest.(check bool) "node budget positive" true (Ck_oracle.differential_node_budget > 0)

let () =
  Alcotest.run "opt_engine"
    [ ( "corpus",
        [ Alcotest.test_case "bit-identical to pre-engine solvers" `Quick
            test_corpus_agreement ] );
      ( "engine",
        [ Alcotest.test_case "budget exhaustion is typed" `Quick test_budget_exhausted;
          Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
          Alcotest.test_case "wide-mask parallel (> 30 blocks)" `Quick test_wide_mask_parallel;
          Alcotest.test_case "fuzz ceilings raised" `Quick test_ceilings_floor;
          Alcotest.test_case "limits raise Instance.Invalid" `Quick test_limits_are_typed ] ) ]
