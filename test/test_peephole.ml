(* Tests for the peephole schedule optimizer. *)

let example1 () =
  Instance.single_disk ~k:4 ~fetch_time:4 ~initial_cache:[ 0; 1; 2; 3 ]
    [| 0; 1; 2; 3; 3; 4; 0; 3; 3; 1 |]

let stall inst sched =
  match Simulate.run inst sched with
  | Ok s -> Some s.Simulate.stall_time
  | Error _ -> None

let test_improves_lazy_schedule () =
  (* A deliberately lazy schedule: same content as the paper's optimal one
     but started much too late. *)
  let inst = example1 () in
  let lazy_sched =
    [ Fetch_op.make ~at_cursor:5 ~block:4 ~evict:(Some 1) ();
      Fetch_op.make ~at_cursor:9 ~block:1 ~evict:(Some 2) () ]
  in
  let before = Option.get (stall inst lazy_sched) in
  let optimized = Peephole.optimize inst lazy_sched in
  let after = Option.get (stall inst optimized) in
  Alcotest.(check bool) (Printf.sprintf "improved (%d -> %d)" before after) true (after < before);
  Alcotest.(check bool) "never beats OPT" true (after >= (Opt.solve_single inst).Opt.stall)

let test_invalid_untouched () =
  let inst = example1 () in
  let bad = [ Fetch_op.make ~at_cursor:0 ~block:0 ~evict:None () ] in
  Alcotest.(check bool) "unchanged" true (Peephole.optimize inst bad = bad)

let gen_inst =
  QCheck2.Gen.(
    let* nblocks = int_range 2 7 in
    let* n = int_range 2 16 in
    let* seq = array_size (return n) (int_range 0 (nblocks - 1)) in
    let* k = int_range 1 4 in
    let* f = int_range 1 4 in
    let init = Instance.warm_initial_cache ~k seq in
    return (Instance.single_disk ~k ~fetch_time:f ~initial_cache:init seq))

(* Optimizing an algorithm's schedule: output stays valid, stall does not
   increase, and OPT is never beaten. *)
let prop_sound =
  QCheck2.Test.make ~count:150 ~name:"peephole: valid, monotone, bounded by OPT"
    QCheck2.Gen.(pair gen_inst (oneofl [ `Cons; `Agg; `Online ]))
    (fun (inst, which) ->
       let sched =
         match which with
         | `Cons -> Conservative.schedule inst
         | `Agg -> Aggressive.schedule inst
         | `Online -> Online.schedule (Online.aggressive ~lookahead:2) inst
       in
       let before = Option.get (stall inst sched) in
       let optimized = Peephole.optimize inst sched in
       match stall inst optimized with
       | None -> QCheck2.Test.fail_reportf "optimizer produced invalid schedule"
       | Some after -> after <= before && after >= (Opt.solve_single inst).Opt.stall)

(* Lazified schedules: randomly delay the start of each operation in an
   algorithm's schedule.  Whenever the perturbed schedule is still valid,
   the peephole pass must recover a schedule that is valid and no worse -
   on these artificially late starts it is where the optimizer earns its
   keep. *)
let prop_lazified_monotone =
  QCheck2.Test.make ~count:200 ~name:"peephole: lazified schedules never get worse"
    QCheck2.Gen.(
      let* inst = gen_inst in
      let* which = oneofl [ `Cons; `Agg ] in
      let* delays = list_size (return 24) (int_range 0 4) in
      return (inst, which, delays))
    (fun (inst, which, delays) ->
       let sched =
         match which with
         | `Cons -> Conservative.schedule inst
         | `Agg -> Aggressive.schedule inst
       in
       let lazified =
         List.mapi
           (fun i (op : Fetch_op.t) ->
              { op with Fetch_op.delay = op.Fetch_op.delay + List.nth delays (i mod 24) })
           sched
       in
       match stall inst lazified with
       | None -> true (* the perturbation broke validity; nothing to optimize *)
       | Some before -> (
         let optimized = Peephole.optimize inst lazified in
         match stall inst optimized with
         | None -> QCheck2.Test.fail_reportf "optimizer produced invalid schedule"
         | Some after ->
           if after <= before && after >= (Opt.solve_single inst).Opt.stall then true
           else
             QCheck2.Test.fail_reportf "stall %d -> %d (opt %d)" before after
               ((Opt.solve_single inst).Opt.stall)))

(* Aggressive already starts fetches as early as possible: the peephole
   pass should essentially never improve it. *)
let prop_aggressive_already_tight =
  QCheck2.Test.make ~count:150 ~name:"peephole cannot improve Aggressive" gen_inst
    (fun inst ->
       let sched = Aggressive.schedule inst in
       let before = Option.get (stall inst sched) in
       let after = Option.get (stall inst (Peephole.optimize inst sched)) in
       after = before)

let () =
  Alcotest.run "peephole"
    [ ( "unit",
        [ Alcotest.test_case "improves lazy schedule" `Quick test_improves_lazy_schedule;
          Alcotest.test_case "invalid untouched" `Quick test_invalid_untouched ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sound; prop_lazified_monotone; prop_aggressive_already_tight ] ) ]
