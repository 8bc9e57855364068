(* Empirical validation of the Section-2 dominance framework, in particular
   the Domination Lemma (Lemma 1) that powers the Theorem-1 analysis. *)

let mk_instance seq k = Instance.single_disk ~k ~fetch_time:3 ~initial_cache:[] seq

(* A simple hand-checkable case. *)
let test_holes_basic () =
  let inst = mk_instance [| 0; 1; 2; 0; 3 |] 2 in
  (* cache {0,1}, cursor 0: missing {2,3}; first refs at 2 and 4. *)
  Alcotest.(check (list int)) "holes" [ 2; 4 ]
    (Dominance.holes inst { Dominance.cursor = 0; cache = [ 0; 1 ] });
  (* cache {2,3}, cursor 0: missing {0,1}; first refs at 0 and 1. *)
  Alcotest.(check (list int)) "holes earlier" [ 0; 1 ]
    (Dominance.holes inst { Dominance.cursor = 0; cache = [ 2; 3 ] })

let test_dominates_basic () =
  let inst = mk_instance [| 0; 1; 2; 0; 3 |] 2 in
  let a = { Dominance.cursor = 1; cache = [ 0; 1 ] } in
  let b = { Dominance.cursor = 0; cache = [ 2; 3 ] } in
  Alcotest.(check bool) "a dominates b" true (Dominance.dominates inst a b);
  Alcotest.(check bool) "b does not dominate a" false (Dominance.dominates inst b a);
  Alcotest.(check bool) "reflexive" true (Dominance.dominates inst a a)

let test_greedy_step_none_when_no_miss () =
  let inst = mk_instance [| 0; 1; 0 |] 2 in
  Alcotest.(check bool) "no missing -> None" true
    (Dominance.greedy_fetch_step inst { Dominance.cursor = 0; cache = [ 0; 1 ] } = None)

(* Random configurations over a shared instance. *)
let gen_case =
  QCheck2.Gen.(
    let* nblocks = int_range 3 7 in
    let* n = int_range 3 20 in
    let* seq = array_size (return n) (int_range 0 (nblocks - 1)) in
    (* The instance's block universe is what actually appears in seq. *)
    let universe = Array.fold_left Stdlib.max 0 seq + 1 in
    let* k = int_range 1 (Stdlib.max 1 (universe - 1)) in
    let pick_cache st =
      (* a uniformly random k-subset of the universe *)
      let arr = Array.init universe (fun i -> i) in
      for i = universe - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t
      done;
      Array.to_list (Array.sub arr 0 (Stdlib.min k universe))
    in
    let* cache_a = make_primitive ~gen:pick_cache ~shrink:(fun _ -> Seq.empty) in
    let* cache_b = make_primitive ~gen:pick_cache ~shrink:(fun _ -> Seq.empty) in
    let* ca = int_range 0 (n - 1) in
    let* cb = int_range 0 ca in
    return (mk_instance seq k, { Dominance.cursor = ca; cache = cache_a },
            { Dominance.cursor = cb; cache = cache_b }))

(* Lemma 1: domination is preserved by the greedy fetch step. *)
let prop_domination_lemma =
  QCheck2.Test.make ~count:2000 ~name:"Lemma 1: greedy step preserves domination" gen_case
    (fun (inst, a, b) ->
       QCheck2.assume (Dominance.dominates inst a b);
       match (Dominance.greedy_fetch_step inst a, Dominance.greedy_fetch_step inst b) with
       | Some a', Some b' ->
         if Dominance.dominates inst a' b' then true
         else
           QCheck2.Test.fail_reportf "domination broken on %s: %s |> %s vs %s |> %s"
             (Format.asprintf "%a" Instance.pp inst)
             (Format.asprintf "%a" Dominance.pp a)
             (Format.asprintf "%a" Dominance.pp a')
             (Format.asprintf "%a" Dominance.pp b)
             (Format.asprintf "%a" Dominance.pp b')
       | _ -> true (* lemma premise: both must be able to fetch *))

(* Dominance is a partial order on configurations (reflexive + transitive
   where defined). *)
let prop_dominates_transitive =
  QCheck2.Test.make ~count:1000 ~name:"dominance transitive"
    QCheck2.Gen.(triple gen_case (return ()) (return ()))
    (fun ((inst, a, b), (), ()) ->
       (* reuse a, b plus a's own holes shifted: a dominates itself *)
       Dominance.dominates inst a a
       && (not (Dominance.dominates inst a b && Dominance.dominates inst b a)
           || (Dominance.holes inst a = Dominance.holes inst b && a.Dominance.cursor = b.Dominance.cursor)))

(* Holes are antitone in the cache: adding one block to the cache removes
   exactly that block's hole (one occurrence of its next reference) and
   leaves the others untouched, so hole lists shrink pointwise. *)
let prop_holes_antitone =
  QCheck2.Test.make ~count:2000 ~name:"holes antitone in cache"
    QCheck2.Gen.(
      let* nblocks = int_range 2 7 in
      let* n = int_range 2 20 in
      let* seq = array_size (return n) (int_range 0 (nblocks - 1)) in
      let universe = Array.fold_left Stdlib.max 0 seq + 1 in
      let* cursor = int_range 0 (n - 1) in
      let* cache_bits = int_bound ((1 lsl universe) - 1) in
      return (seq, universe, cursor, cache_bits))
    (fun (seq, universe, cursor, cache_bits) ->
       let cache =
         List.filter (fun b -> cache_bits land (1 lsl b) <> 0)
           (List.init universe Fun.id)
       in
       let missing = List.filter (fun b -> not (List.mem b cache)) (List.init universe Fun.id) in
       QCheck2.assume (missing <> []);
       let added = List.nth missing (cursor mod List.length missing) in
       (* k is irrelevant to [holes]; any capacity accommodating the caches works *)
       let inst = Instance.single_disk ~k:universe ~fetch_time:3 ~initial_cache:[] seq in
       let h_small = Dominance.holes inst { Dominance.cursor; cache } in
       let h_big = Dominance.holes inst { Dominance.cursor; cache = added :: cache } in
       let nr = Next_ref.of_instance inst in
       let removed = Next_ref.next_at_or_after nr added cursor in
       let rec remove_one x = function
         | [] -> None
         | y :: tl when y = x -> Some tl
         | y :: tl -> Option.map (fun tl' -> y :: tl') (remove_one x tl)
       in
       match remove_one removed h_small with
       | Some expected -> h_big = expected
       | None ->
         QCheck2.Test.fail_reportf "hole %d for added block %d absent from %s" removed added
           (String.concat ";" (List.map string_of_int h_small)))

(* The normalization behind Opt.solve_single prunes the candidate set to
   greedy-content schedules (next missing block, furthest-next-reference
   eviction, decision-point starts).  The pruned set must still contain an
   optimal schedule: the unrestricted exhaustive search never beats it. *)
let prop_pruning_retains_optimum =
  QCheck2.Test.make ~count:120 ~name:"pruned candidate set retains an optimum"
    QCheck2.Gen.(
      let* nblocks = int_range 2 6 in
      let* n = int_range 2 12 in
      let* seq = array_size (return n) (int_range 0 (nblocks - 1)) in
      let* k = int_range 1 4 in
      let* f = int_range 1 5 in
      let* warm = bool in
      let init = if warm then Instance.warm_initial_cache ~k seq else [] in
      return (Instance.single_disk ~k ~fetch_time:f ~initial_cache:init seq))
    (fun inst ->
       let pruned = (Opt.solve_single inst).Opt.stall in
       let free = (Opt.solve_single ~free_evict:true inst).Opt.stall in
       if pruned = free then true
       else
         QCheck2.Test.fail_reportf "pruned %d vs exhaustive %d on %s" pruned free
           (Format.asprintf "%a" Instance.pp inst))

(* During an actual Aggressive run against itself started one fetch "ahead",
   the later state always dominates: a smoke check that the machinery plugs
   into real algorithm states. *)
let test_aggressive_self_domination () =
  let seq = Workload.sequential_scan ~n:30 ~num_blocks:8 in
  let inst = Workload.single_instance ~k:4 ~fetch_time:3 seq in
  let d = Driver.create inst in
  let prev = ref (Dominance.config_of_driver d) in
  let ok = ref true in
  while not (Driver.finished d) do
    Driver.tick_completions d;
    Aggressive.decide d;
    Driver.advance d;
    if not (Driver.any_disk_busy d) then begin
      let cur = Dominance.config_of_driver d in
      if List.length cur.Dominance.cache = List.length !prev.Dominance.cache then begin
        if not (Dominance.dominates inst cur !prev) then ok := false;
        prev := cur
      end
    end
  done;
  Alcotest.(check bool) "later states dominate earlier ones" true !ok

let () =
  Alcotest.run "dominance"
    [ ( "unit",
        [ Alcotest.test_case "holes" `Quick test_holes_basic;
          Alcotest.test_case "dominates" `Quick test_dominates_basic;
          Alcotest.test_case "no-miss step" `Quick test_greedy_step_none_when_no_miss;
          Alcotest.test_case "aggressive self-domination" `Quick test_aggressive_self_domination ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_domination_lemma; prop_dominates_transitive; prop_holes_antitone;
            prop_pruning_retains_optimum ] ) ]
