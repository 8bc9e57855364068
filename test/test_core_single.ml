(* Tests for the single-disk algorithms: Aggressive, Conservative, Delay(d),
   Combination, and the exact optimum.  Anchored on the paper's introduction
   example and on the per-sequence forms of the paper's bounds. *)

let example1 () =
  Instance.single_disk ~k:4 ~fetch_time:4 ~initial_cache:[ 0; 1; 2; 3 ]
    [| 0; 1; 2; 3; 3; 4; 0; 3; 3; 1 |]

(* ------------------------------------------------------------------ *)
(* Anchors from the paper. *)

let test_aggressive_takes_naive_schedule () =
  (* On example 1 Aggressive fetches b5 at the request to b2 (the earliest
     moment a cached block is not requested before b5) and evicts b1, which
     is exactly the paper's "first option" with stall 3 / elapsed 13. *)
  let s = Aggressive.stats (example1 ()) in
  Alcotest.(check int) "stall" 3 s.Simulate.stall_time;
  Alcotest.(check int) "elapsed" 13 s.Simulate.elapsed_time

let test_opt_finds_better_schedule () =
  (* The paper's "better option": stall 1, elapsed 11 - and it is optimal. *)
  let o = Opt.solve_single (example1 ()) in
  Alcotest.(check int) "opt stall" 1 o.Opt.stall;
  (match Option.map (Simulate.run (example1 ())) o.Opt.schedule with
   | Some (Ok s) -> Alcotest.(check int) "validated stall" 1 s.Simulate.stall_time
   | Some (Error e) -> Alcotest.failf "invalid opt schedule: %s" e.Simulate.reason
   | None -> Alcotest.fail "no witness schedule")

let test_delay1_matches_opt_on_example1 () =
  Alcotest.(check int) "delay(1) stall" 1 (Delay.stall_time ~d:1 (example1 ()))

(* ------------------------------------------------------------------ *)
(* Random-instance generators. *)

let gen_instance ?(max_n = 18) ?(max_blocks = 8) ?(max_k = 5) ?(max_f = 5) () =
  QCheck2.Gen.(
    let* nblocks = int_range 2 max_blocks in
    let* n = int_range 1 max_n in
    let* seq = array_size (return n) (int_range 0 (nblocks - 1)) in
    let* k = int_range 1 max_k in
    let* f = int_range 1 max_f in
    let init = Instance.warm_initial_cache ~k seq in
    return (Instance.single_disk ~k ~fetch_time:f ~initial_cache:init seq))

let algorithms =
  [ ("aggressive", Aggressive.schedule);
    ("conservative", Conservative.schedule);
    ("delay0", Delay.schedule ~d:0);
    ("delay1", Delay.schedule ~d:1);
    ("delay3", Delay.schedule ~d:3);
    ("combination", Combination.schedule) ]

(* Every algorithm's schedule must pass the executor. *)
let prop_schedules_valid =
  QCheck2.Test.make ~count:300 ~name:"all schedules accepted by executor" (gen_instance ())
    (fun inst ->
       List.for_all
         (fun (name, alg) ->
            match Simulate.run inst (alg inst) with
            | Ok _ -> true
            | Error e ->
              QCheck2.Test.fail_reportf "%s rejected at t=%d: %s (%s)" name e.Simulate.at_time
                e.Simulate.reason
                (Format.asprintf "%a" Instance.pp inst))
         algorithms)

(* Delay(0) is exactly Aggressive (same schedule, not just same cost). *)
let prop_delay0_is_aggressive =
  QCheck2.Test.make ~count:300 ~name:"Delay(0) = Aggressive" (gen_instance ())
    (fun inst -> Delay.schedule ~d:0 inst = Aggressive.schedule inst)

(* Delay(n) performs the same replacements as Conservative: equal stall. *)
let prop_delay_inf_is_conservative =
  QCheck2.Test.make ~count:300 ~name:"Delay(n) stall = Conservative stall" (gen_instance ())
    (fun inst ->
       let d = Instance.length inst in
       Delay.stall_time ~d inst = Conservative.stall_time inst)

(* OPT lower-bounds every algorithm. *)
let prop_opt_lower_bounds =
  QCheck2.Test.make ~count:200 ~name:"OPT <= every algorithm" (gen_instance ())
    (fun inst ->
       let opt = (Opt.solve_single inst).Opt.stall in
       List.for_all
         (fun (name, alg) ->
            match Simulate.run inst (alg inst) with
            | Ok s ->
              if s.Simulate.stall_time >= opt then true
              else
                QCheck2.Test.fail_reportf "%s stall %d < OPT %d on %s" name s.Simulate.stall_time
                  opt
                  (Format.asprintf "%a" Instance.pp inst)
            | Error _ -> false)
         algorithms)

(* The greedy-content normalization: restricted DP = exhaustive search. *)
let prop_opt_matches_exhaustive =
  QCheck2.Test.make ~count:150 ~name:"solve_single = ~free_evict"
    (gen_instance ~max_n:12 ~max_blocks:6 ~max_k:4 ~max_f:4 ())
    (fun inst ->
       let a = (Opt.solve_single inst).Opt.stall in
       let b = (Opt.solve_single ~free_evict:true inst).Opt.stall in
       if a = b then true
       else
         QCheck2.Test.fail_reportf "restricted=%d free-eviction=%d on %s" a b
           (Format.asprintf "%a" Instance.pp inst))

(* Theorem 1, per-sequence form: elapsed(Aggressive) <= elapsed(OPT)
   + F * ceil(n / (k + ceil(k/F) - 1)). *)
let prop_aggressive_theorem1 =
  QCheck2.Test.make ~count:200 ~name:"Aggressive within Theorem 1 budget" (gen_instance ())
    (fun inst ->
       let n = Instance.length inst in
       let k = inst.Instance.cache_size and f = inst.Instance.fetch_time in
       let phase_len = k + Bounds.ceil_div k f - 1 in
       let budget = f * Bounds.ceil_div n phase_len in
       let agg = Aggressive.elapsed_time inst in
       let opt = Instance.length inst + (Opt.solve_single inst).Opt.stall in
       if agg <= opt + budget then true
       else
         QCheck2.Test.fail_reportf "agg=%d opt=%d budget=%d on %s" agg opt budget
           (Format.asprintf "%a" Instance.pp inst))

(* Conservative's 2-approximation holds per sequence. *)
let prop_conservative_2approx =
  QCheck2.Test.make ~count:200 ~name:"Conservative <= 2 OPT (elapsed)" (gen_instance ())
    (fun inst ->
       let c = Conservative.elapsed_time inst in
       let opt = Instance.length inst + (Opt.solve_single inst).Opt.stall in
       c <= 2 * opt)

(* Conservative performs the minimum possible number of fetches (MIN). *)
let prop_conservative_min_fetches =
  QCheck2.Test.make ~count:200 ~name:"Conservative fetch count <= Aggressive's" (gen_instance ())
    (fun inst ->
       let cons = List.length (Conservative.schedule inst) in
       let agg = List.length (Aggressive.schedule inst) in
       cons <= agg)

(* Theorem 3 per-sequence (with an additive F of slack for segment
   boundary effects): elapsed(Delay(d)) <= c(d) * elapsed(OPT) + F. *)
let prop_delay_theorem3 =
  QCheck2.Test.make ~count:200 ~name:"Delay(d) within Theorem 3 bound"
    QCheck2.Gen.(pair (gen_instance ()) (int_range 0 8))
    (fun (inst, d) ->
       let f = inst.Instance.fetch_time in
       let c = Bounds.delay_bound ~d ~f in
       let dl = float_of_int (Delay.elapsed_time ~d inst) in
       let opt = float_of_int (Instance.length inst + (Opt.solve_single inst).Opt.stall) in
       if dl <= (c *. opt) +. float_of_int f +. 1e-9 then true
       else
         QCheck2.Test.fail_reportf "delay(%d)=%g bound=%g*%g on %s" d dl c opt
           (Format.asprintf "%a" Instance.pp inst))

(* Driver bookkeeping agrees with the executor on stall time. *)
let prop_driver_agrees_with_executor =
  QCheck2.Test.make ~count:200 ~name:"driver stall = executor stall" (gen_instance ())
    (fun inst ->
       let drv = Driver.run inst ~decide:Aggressive.decide in
       match Simulate.run inst (Driver.schedule drv) with
       | Ok s -> s.Simulate.stall_time = Driver.stall_time drv
       | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Theorem 2: the adversarial family. *)

let test_theorem2_construction_shape () =
  (* k=5, F=3: l = (k-1)/(F-1) = 2; each phase has k+l = 7 requests. *)
  let inst = Workload.theorem2_lower_bound ~k:5 ~fetch_time:3 ~phases:3 in
  Alcotest.(check int) "length" 21 (Instance.length inst);
  Alcotest.(check int) "initial cache size" 5 (List.length inst.Instance.initial_cache)

let test_theorem2_aggressive_suffers () =
  let k = 5 and f = 3 and phases = 4 in
  let inst = Workload.theorem2_lower_bound ~k ~fetch_time:f ~phases in
  let agg = Aggressive.elapsed_time inst in
  let opt = Instance.length inst + (Opt.solve_single inst).Opt.stall in
  let l = (k - 1) / (f - 1) in
  (* Paper: Aggressive needs k+l+F per phase; OPT needs k+l+2 per phase. *)
  Alcotest.(check bool)
    (Printf.sprintf "aggressive >= phases*(k+l+F) - slack (got %d)" agg)
    true
    (agg >= (phases * (k + l + f)) - f);
  Alcotest.(check bool) (Printf.sprintf "opt <= phases*(k+l+2) (got %d)" opt) true
    (opt <= phases * (k + l + 2));
  let ratio = float_of_int agg /. float_of_int opt in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.3f within Theorem 1 bound %.3f" ratio (Bounds.aggressive_upper ~k ~f))
    true
    (ratio <= Bounds.aggressive_upper ~k ~f +. 1e-9);
  (* The construction should already bite: ratio clearly above 1. *)
  Alcotest.(check bool) "ratio exceeds 1.05" true (ratio > 1.05)

let test_theorem2_requires_divisibility () =
  Alcotest.check_raises "bad params" (Invalid_argument "theorem2: requires (F-1) | (k-1)")
    (fun () -> ignore (Workload.theorem2_lower_bound ~k:6 ~fetch_time:4 ~phases:2))

(* ------------------------------------------------------------------ *)
(* Bounds formulas. *)

let test_bounds_formulas () =
  Alcotest.(check (float 1e-9)) "aggressive_upper k=5 F=3" 1.5 (Bounds.aggressive_upper ~k:5 ~f:3);
  Alcotest.(check (float 1e-9)) "cao k=5 F=3" 1.6 (Bounds.cao_aggressive_upper ~k:5 ~f:3);
  Alcotest.(check (float 1e-9)) "aggressive_upper caps at 2" 2.0 (Bounds.aggressive_upper ~k:2 ~f:50);
  Alcotest.(check (float 1e-9)) "lower k=5 F=3" (1.0 +. (3.0 /. 7.0)) (Bounds.aggressive_lower ~k:5 ~f:3);
  Alcotest.(check (float 1e-9)) "delay d=0 gives 2" 2.0 (Bounds.delay_bound ~d:0 ~f:7);
  Alcotest.(check int) "d0 for F=4" 2 (Bounds.delay_opt_d ~f:4);
  Alcotest.(check (float 1e-9)) "delay bound F=4 d=2" 1.8 (Bounds.delay_bound ~d:2 ~f:4);
  (* The optimal delay bound approaches sqrt 3 for large F. *)
  Alcotest.(check bool) "delay_opt_bound F=1000 near sqrt3" true
    (Float.abs (Bounds.delay_opt_bound ~f:1000 -. Bounds.sqrt3) < 0.01);
  (* Theorem 1 improves on Cao et al. for every k, F with F <= k. *)
  for k = 2 to 30 do
    for f = 2 to k do
      assert (Bounds.aggressive_upper ~k ~f <= Bounds.cao_aggressive_upper ~k ~f +. 1e-12)
    done
  done

(* Regression for the Corollary-1 off-by-one: the closed form
   ceil((sqrt 3 - 1)/2 * F) is asymptotic, and for small F (e.g. F = 3)
   the integer minimizer of delay_bound is d0 - 1.  delay_opt_d now scans,
   so exhaustively verify it returns a true minimizer for every F up to
   64, with d0 preferred on ties. *)
let test_delay_opt_d_minimizes () =
  for f = 1 to 64 do
    let returned = Bounds.delay_opt_d ~f in
    let returned_bound = Bounds.delay_bound ~d:returned ~f in
    (* brute-force minimum over a range safely past the upward branch *)
    let brute = ref infinity in
    for d = 0 to (4 * f) + 8 do
      brute := Float.min !brute (Bounds.delay_bound ~d ~f)
    done;
    if returned_bound > !brute +. 1e-12 then
      Alcotest.failf "F=%d: delay_opt_d returned d=%d (bound %.6f) but min is %.6f" f returned
        returned_bound !brute
  done;
  (* the documented small-F case where the closed form misses *)
  Alcotest.(check int) "F=3 minimizer is 1, not ceil-form 2" 1 (Bounds.delay_opt_d ~f:3);
  Alcotest.(check bool) "F=3: d=1 strictly beats d=2" true
    (Bounds.delay_bound ~d:1 ~f:3 < Bounds.delay_bound ~d:2 ~f:3 -. 1e-12)

let test_combination_choice () =
  (* Large k relative to F: Aggressive's bound is tiny, use Aggressive. *)
  (match Combination.choose ~k:100 ~f:2 with
   | Combination.Use_aggressive -> ()
   | Combination.Use_delay _ -> Alcotest.fail "expected Aggressive for k >> F");
  (* F close to k: Aggressive's bound approaches 2 > sqrt3: use Delay. *)
  (match Combination.choose ~k:8 ~f:8 with
   | Combination.Use_delay d -> Alcotest.(check int) "d0" (Bounds.delay_opt_d ~f:8) d
   | Combination.Use_aggressive -> Alcotest.fail "expected Delay for F ~ k")

(* Combination's bound is never worse than either classical bound. *)
let test_combination_dominates () =
  for k = 2 to 24 do
    for f = 2 to 24 do
      let c = Bounds.combination_bound ~k ~f in
      assert (c <= Bounds.aggressive_upper ~k ~f +. 1e-12);
      assert (c <= Bounds.conservative_upper +. 1e-12)
    done
  done

(* ------------------------------------------------------------------ *)
(* Driver contract: a decide rule that never fetches leaves a cold cache
   stalled with nothing in flight, which the driver reports as a typed
   internal error rather than looping or failing with a bare string. *)

let test_driver_deadlock_is_internal_error () =
  let inst = Instance.single_disk ~k:2 ~fetch_time:3 ~initial_cache:[] [| 0; 1; 0 |] in
  match Driver.run inst ~decide:(fun _ -> ()) with
  | _ -> Alcotest.fail "deadlocked run returned"
  | exception Simulate.Internal_error { component; _ } ->
    Alcotest.(check string) "component" "driver" component

(* An illegal fetch from a decide callback is an internal error with the
   time, cursor and block in its reason - never an [Assert_failure]. *)
let test_driver_illegal_fetches () =
  let inst = Instance.single_disk ~k:2 ~fetch_time:3 ~initial_cache:[ 0 ] [| 0; 1; 2; 1 |] in
  let contains hay needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let expect name ~block decide =
    match Driver.run inst ~decide with
    | _ -> Alcotest.failf "%s: run returned" name
    | exception Simulate.Internal_error { component; reason } ->
      Alcotest.(check string) (name ^ ": component") "driver" component;
      List.iter
        (fun needle ->
           if not (contains reason needle) then
             Alcotest.failf "%s: reason %S lacks %S" name reason needle)
        [ "t=0"; "r1"; Printf.sprintf "b%d" block ]
  in
  expect "busy disk" ~block:2 (fun d ->
      if not (Driver.disk_busy d 0) then begin
        Driver.start_fetch d ~block:1 ~evict:None;
        Driver.start_fetch d ~block:2 ~evict:None
      end);
  expect "resident block" ~block:0 (fun d -> Driver.start_fetch d ~block:0 ~evict:None);
  expect "victim not resident" ~block:2 (fun d -> Driver.start_fetch d ~block:1 ~evict:(Some 2))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_schedules_valid; prop_delay0_is_aggressive; prop_delay_inf_is_conservative;
      prop_opt_lower_bounds; prop_opt_matches_exhaustive; prop_aggressive_theorem1;
      prop_conservative_2approx; prop_conservative_min_fetches; prop_delay_theorem3;
      prop_driver_agrees_with_executor ]

let () =
  Alcotest.run "core-single"
    [ ( "paper anchors",
        [ Alcotest.test_case "Aggressive naive on example 1" `Quick test_aggressive_takes_naive_schedule;
          Alcotest.test_case "OPT = 1 on example 1" `Quick test_opt_finds_better_schedule;
          Alcotest.test_case "Delay(1) = OPT on example 1" `Quick test_delay1_matches_opt_on_example1 ] );
      ( "theorem 2 family",
        [ Alcotest.test_case "construction shape" `Quick test_theorem2_construction_shape;
          Alcotest.test_case "aggressive suffers" `Quick test_theorem2_aggressive_suffers;
          Alcotest.test_case "divisibility check" `Quick test_theorem2_requires_divisibility ] );
      ( "bounds",
        [ Alcotest.test_case "formulas" `Quick test_bounds_formulas;
          Alcotest.test_case "delay_opt_d minimizes" `Quick test_delay_opt_d_minimizes;
          Alcotest.test_case "combination choice" `Quick test_combination_choice;
          Alcotest.test_case "combination dominates" `Quick test_combination_dominates ] );
      ( "driver",
        [ Alcotest.test_case "deadlock raises Internal_error" `Quick
            test_driver_deadlock_is_internal_error;
          Alcotest.test_case "illegal fetches raise Internal_error" `Quick
            test_driver_illegal_fetches ] );
      ("properties", props) ]
