(* White-box tests of the Section-3 rounding pipeline internals:
   crossing elimination, the normalization properties, the time
   decomposition and the greedy-content emitter. *)

module Iv = Rounding.Iv

let tiny_lp inst = (Sync_lp.solve inst).Sync_lp.frac

(* The canonical crossing instance: the optimal fractional solution puts
   mass on a strictly nested pair which crossing elimination must rewrite
   into shared-endpoint intervals (see the debugging history in
   DESIGN.md). *)
let crossing_instance () =
  Instance.single_disk ~k:2 ~fetch_time:2 ~initial_cache:[ 0; 2 ] [| 0; 2; 1; 3 |]

let strictly_nested_pair entries =
  List.exists
    (fun (e : Rounding.entry) ->
       List.exists
         (fun (e' : Rounding.entry) ->
            e'.Rounding.iv.Iv.lo > e.Rounding.iv.Iv.lo && e'.Rounding.iv.Iv.hi < e.Rounding.iv.Iv.hi)
         entries)
    entries

let test_crossing_elimination () =
  let inst = crossing_instance () in
  let norm = Rounding.of_fractional (tiny_lp inst) in
  Rounding.eliminate_crossings norm;
  Alcotest.(check bool) "laminar flag" true norm.Rounding.laminar;
  Alcotest.(check bool) "no strictly nested pair" false (strictly_nested_pair norm.Rounding.entries)

let test_crossing_preserves_mass_and_value () =
  let inst = crossing_instance () in
  let frac = tiny_lp inst in
  let norm = Rounding.of_fractional frac in
  let total_x entries = List.fold_left (fun a (e : Rounding.entry) -> Rat.add a e.Rounding.x) Rat.zero entries in
  let value entries =
    List.fold_left
      (fun a (e : Rounding.entry) ->
         Rat.add a
           (Rat.mul e.Rounding.x
              (Rat.of_int (inst.Instance.fetch_time - Sync_lp.interval_length e.Rounding.iv))))
      Rat.zero entries
  in
  let x0 = total_x norm.Rounding.entries and v0 = value norm.Rounding.entries in
  Rounding.eliminate_crossings norm;
  Rounding.normalize_orders norm;
  Alcotest.(check bool) "total x preserved" true (Rat.equal x0 (total_x norm.Rounding.entries));
  Alcotest.(check bool) "objective preserved" true (Rat.equal v0 (value norm.Rounding.entries))

let test_decomposition_dist_monotone () =
  let inst = crossing_instance () in
  let norm = Rounding.of_fractional (tiny_lp inst) in
  Rounding.eliminate_crossings norm;
  let dc = Rounding.decompose norm in
  let n = Array.length dc.Rounding.dist in
  for m = 1 to n - 1 do
    Alcotest.(check bool) "dist non-decreasing" true
      (Rat.le dc.Rounding.dist.(m - 1) dc.Rounding.dist.(m))
  done;
  Alcotest.(check bool) "total = sum of x" true
    (Rat.equal dc.Rounding.total
       (Array.fold_left (fun a (e : Rounding.entry) -> Rat.add a e.Rounding.x) Rat.zero dc.Rounding.darr))

let test_candidates_cover_zero () =
  let inst = crossing_instance () in
  let norm = Rounding.of_fractional (tiny_lp inst) in
  Rounding.eliminate_crossings norm;
  let dc = Rounding.decompose norm in
  let ts = Rounding.candidate_ts dc in
  Alcotest.(check bool) "t=0 among candidates" true (List.exists (Rat.equal Rat.zero) ts);
  List.iter
    (fun t ->
       Alcotest.(check bool) "candidates in [0,1)" true (Rat.le Rat.zero t && Rat.lt t Rat.one))
    ts

(* On an all-integral fractional solution, the selection at t = 0 picks
   every interval once. *)
let test_integral_selection_complete () =
  let inst = crossing_instance () in
  let norm = Rounding.of_fractional (tiny_lp inst) in
  Rounding.eliminate_crossings norm;
  let all_integral =
    List.for_all (fun (e : Rounding.entry) -> Rat.equal e.Rounding.x Rat.one) norm.Rounding.entries
  in
  if all_integral then begin
    let dc = Rounding.decompose norm in
    let sel = Rounding.selection dc Rat.zero in
    Alcotest.(check int) "every entry selected" (Array.length dc.Rounding.darr) (List.length sel)
  end

(* The greedy-content emitter on the full skeleton of an optimal fractional
   solution produces a valid schedule matching OPT on the canonical
   instance. *)
let test_emit_greedy_matches_opt () =
  let inst = crossing_instance () in
  let norm = Rounding.of_fractional (tiny_lp inst) in
  Rounding.eliminate_crossings norm;
  Rounding.normalize_orders norm;
  let skeleton = List.map (fun (e : Rounding.entry) -> e.Rounding.iv) norm.Rounding.entries in
  let sched = Rounding.emit_greedy norm.Rounding.aug skeleton in
  match Simulate.run inst sched with
  | Error e -> Alcotest.failf "emit_greedy invalid: %s" e.Simulate.reason
  | Ok s -> Alcotest.(check int) "matches OPT" (Opt_single.stall_time inst) s.Simulate.stall_time

(* A stuck crossing pair is skipped, not retried: on this instance the
   redistribution LP of one nested pair has no solution, so crossing
   elimination must move on to the other pairs and give up on laminarity
   after a handful of LPs (one synchronized LP plus three crossing LPs),
   not after 10,000 retries of the same pair. *)
let test_stuck_pair_skipped () =
  let uniform = List.find (fun f -> f.Workload.name = "uniform") Workload.families in
  let seq = uniform.Workload.generate ~seed:2 ~n:18 ~num_blocks:6 in
  let inst =
    Workload.parallel_instance ~k:2 ~fetch_time:3 ~num_disks:2
      ~layout:(fun ~num_blocks ~num_disks -> Workload.striped_layout ~num_blocks ~num_disks)
      seq
  in
  let before = Simplex.stats_snapshot () in
  let r = Rounding.solve inst in
  let solves = (Simplex.stats_since before).Simplex.float_solves in
  Alcotest.(check int) "LP solves" 4 solves;
  Alcotest.(check bool) "laminar" false r.Rounding.laminar;
  Alcotest.(check int) "stall" 0 r.Rounding.stats.Simulate.stall_time

(* Property: after crossing elimination on random instances, either the
   laminar flag is false (gave up, allowed) or no strictly nested pair
   remains; and per-entry eviction mass always balances real fetch mass. *)
let gen_inst =
  QCheck2.Gen.(
    let* d = int_range 1 2 in
    let* nblocks = int_range 2 6 in
    let* n = int_range 2 10 in
    let* seq = array_size (return n) (int_range 0 (nblocks - 1)) in
    let* k = int_range 2 3 in
    let* f = int_range 1 3 in
    let num_blocks = Array.fold_left Stdlib.max 0 seq + 1 in
    let disk_of = Workload.striped_layout ~num_blocks ~num_disks:d in
    let init = Instance.warm_initial_cache ~k seq in
    return (Instance.parallel ~k ~fetch_time:f ~num_disks:d ~disk_of ~initial_cache:init seq))

let prop_elimination_sound =
  QCheck2.Test.make ~count:80 ~name:"crossing elimination: laminar or flagged" gen_inst
    (fun inst ->
       let norm = Rounding.of_fractional (tiny_lp inst) in
       Rounding.eliminate_crossings norm;
       (not norm.Rounding.laminar) || not (strictly_nested_pair norm.Rounding.entries))

let prop_entry_balance =
  QCheck2.Test.make ~count:80 ~name:"entries keep fetch/evict balance" gen_inst
    (fun inst ->
       let norm = Rounding.of_fractional (tiny_lp inst) in
       Rounding.eliminate_crossings norm;
       Rounding.normalize_orders norm;
       let aug = norm.Rounding.aug in
       List.for_all
         (fun (e : Rounding.entry) ->
            let real_fetch =
              Hashtbl.fold
                (fun b a acc ->
                   if Array.exists (fun j -> j = b) aug.Sync_lp.junk then acc else Rat.add acc a)
                e.Rounding.fetch Rat.zero
            in
            let evict = Hashtbl.fold (fun _ a acc -> Rat.add acc a) e.Rounding.evict Rat.zero in
            Rat.equal real_fetch evict)
         norm.Rounding.entries)

(* Per-disk fetch mass must equal x for every entry, after all surgery. *)
let prop_c2_preserved =
  QCheck2.Test.make ~count:80 ~name:"per-disk fetch mass = x after surgery" gen_inst
    (fun inst ->
       let norm = Rounding.of_fractional (tiny_lp inst) in
       Rounding.eliminate_crossings norm;
       Rounding.normalize_orders norm;
       let aug = norm.Rounding.aug in
       List.for_all
         (fun (e : Rounding.entry) ->
            List.for_all
              (fun d ->
                 let mass =
                   Hashtbl.fold
                     (fun b a acc -> if aug.Sync_lp.disk_of.(b) = d then Rat.add acc a else acc)
                     e.Rounding.fetch Rat.zero
                 in
                 Rat.equal mass e.Rounding.x)
              (List.init aug.Sync_lp.num_disks (fun d -> d)))
         norm.Rounding.entries)

let () =
  Alcotest.run "rounding"
    [ ( "unit",
        [ Alcotest.test_case "crossing elimination" `Quick test_crossing_elimination;
          Alcotest.test_case "mass/value preserved" `Quick test_crossing_preserves_mass_and_value;
          Alcotest.test_case "dist monotone" `Quick test_decomposition_dist_monotone;
          Alcotest.test_case "candidate offsets" `Quick test_candidates_cover_zero;
          Alcotest.test_case "integral selection complete" `Quick test_integral_selection_complete;
          Alcotest.test_case "emit_greedy matches OPT" `Quick test_emit_greedy_matches_opt;
          Alcotest.test_case "stuck pair skipped" `Quick test_stuck_pair_skipped ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_elimination_sound; prop_entry_balance; prop_c2_preserved ] ) ]
