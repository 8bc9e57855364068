(* Quickstart: the paper's introduction example, end to end.

   sigma = b1 b2 b3 b4 b4 b5 b1 b4 b4 b2, cache size k = 4, fetch time
   F = 4, cache initially holds b1..b4.  The paper walks through two
   schedules: fetching b5 at the request to b2 (stall 3, elapsed 13) and
   fetching it one request later so that b2 can be evicted instead
   (stall 1, elapsed 11).

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* Blocks b1..b5 are 0..4. *)
  let inst =
    Instance.single_disk ~k:4 ~fetch_time:4 ~initial_cache:[ 0; 1; 2; 3 ]
      [| 0; 1; 2; 3; 3; 4; 0; 3; 3; 1 |]
  in
  Format.printf "%a@.@." Instance.pp inst;

  (* 1. Hand-written naive schedule (the paper's first option). *)
  let naive =
    [ Fetch_op.make ~at_cursor:1 ~block:4 ~evict:(Some 0) ();
      Fetch_op.make ~at_cursor:5 ~block:0 ~evict:(Some 2) () ]
  in
  (match Simulate.run ~record_events:true inst naive with
   | Ok s ->
     Format.printf "naive schedule (fetch b5 at the request to b2, evicting b1):@.  %a@."
       Simulate.pp_stats s;
     List.iter (fun e -> Format.printf "    %a@." Simulate.pp_event e) s.Simulate.events
   | Error e -> Format.printf "rejected: %s@." e.Simulate.reason);

  (* 2. What the algorithms do. *)
  Format.printf "@.algorithms:@.";
  let report name stall = Format.printf "  %-14s stall=%d elapsed=%d@." name stall (10 + stall) in
  report "aggressive" (Aggressive.stall_time inst);
  report "conservative" (Conservative.stall_time inst);
  report "delay(1)" (Delay.stall_time ~d:1 inst);
  report "combination" (Combination.stall_time inst);

  (* 3. The exact optimum, with its witness schedule. *)
  let opt = Opt.solve_single inst in
  (* Single-disk solves always carry a witness. *)
  let opt_schedule = Option.get opt.Opt.schedule in
  Format.printf "@.optimal schedule (stall %d, the paper's second option):@." opt.Opt.stall;
  List.iter (fun op -> Format.printf "    %a@." Fetch_op.pp op) opt_schedule;
  (match Simulate.run ~record_events:true inst opt_schedule with
   | Ok s -> List.iter (fun e -> Format.printf "    %a@." Simulate.pp_event e) s.Simulate.events
   | Error e -> Format.printf "rejected: %s@." e.Simulate.reason);

  (* 4. The LP pipeline finds the same optimum (D = 1: zero extra slots). *)
  let r = Rounding.solve inst in
  Format.printf "@.synchronized LP: fractional optimum = %s, rounded stall = %d@."
    (Rat.to_string r.Rounding.lp_value)
    r.Rounding.stats.Simulate.stall_time
