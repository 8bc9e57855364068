(* Database-style workload: a long relation scan interleaved with hits to a
   hot index - the scenario Cao et al. use to motivate integrated
   prefetching and caching.  Pure caching can do nothing for the scan
   (every scan block is a compulsory miss) while pure prefetching would
   evict the hot index; the integrated algorithms balance the two.

   Run with:  dune exec examples/database_scan.exe *)

let () =
  let n = 160 and k = 8 and f = 4 in
  let seq =
    Workload.scan_with_hot_set ~seed:42 ~n ~scan_blocks:30 ~hot_blocks:6 ~hot_fraction:0.35
  in
  let inst = Workload.single_instance ~k ~fetch_time:f seq in
  Format.printf "%a@.@." Instance.pp inst;

  (* Demand paging baseline: every MIN miss pays the full fetch time,
     because nothing is prefetched. *)
  let min = Paging.min_offline inst in
  let demand_elapsed = n + (f * min.Paging.misses) in
  Printf.printf "demand paging (MIN replacements, no prefetch): %d misses, elapsed %d\n"
    min.Paging.misses demand_elapsed;

  let opt = Instance.length inst + (Opt.solve_single inst).Opt.stall in
  let report name elapsed =
    Printf.printf "%-22s elapsed %4d  (%.3fx OPT, %.1f%% of demand-paging stall eliminated)\n" name
      elapsed
      (float_of_int elapsed /. float_of_int opt)
      (100.0
       *. float_of_int (demand_elapsed - elapsed)
       /. float_of_int (Stdlib.max 1 (demand_elapsed - n)))
  in
  Printf.printf "\nintegrated prefetching/caching:\n";
  report "aggressive" (Aggressive.elapsed_time inst);
  report "conservative" (Conservative.elapsed_time inst);
  report (Printf.sprintf "delay(d0=%d)" (Bounds.delay_opt_d ~f)) (Delay.elapsed_time ~d:(Bounds.delay_opt_d ~f) inst);
  report "combination" (Combination.elapsed_time inst);
  report "optimal" opt;

  (* How much does limited lookahead cost? *)
  Printf.printf "\nonline (limited lookahead) aggressive:\n";
  List.iter
    (fun l ->
       report (Printf.sprintf "lookahead %3d" l)
         (Online.elapsed_time (Online.aggressive ~lookahead:l) inst))
    [ 1; f; 4 * f; n ]
