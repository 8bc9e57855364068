(* The Theorem-2 adversarial construction, visualized.

   The paper's lower bound builds phases of k + l requests (l = (k-1)/(F-1))
   in which Aggressive is baited into evicting a_1 for the new b-blocks and
   then pays F - 1 extra stall units refetching it, phase after phase,
   while OPT evicts the dying b-blocks of the previous phase and pays only
   2 stall units per phase.

   Run with:  dune exec examples/lower_bound_demo.exe *)

let () =
  let k = 5 and f = 3 and phases = 3 in
  let l = Workload.theorem2_params ~k ~fetch_time:f in
  let inst = Workload.theorem2_lower_bound ~k ~fetch_time:f ~phases in
  Printf.printf "Theorem 2 construction: k=%d F=%d l=(k-1)/(F-1)=%d, %d phases of %d requests\n\n"
    k f l phases (k + l);
  Format.printf "%a@.@." Instance.pp inst;

  let agg_sched = Aggressive.schedule inst in
  let agg = Aggressive.stats inst in
  let opt = Opt.solve_single inst in
  Printf.printf "Aggressive: stall=%d elapsed=%d (the bait works: it refetches a1 every phase)\n"
    agg.Simulate.stall_time agg.Simulate.elapsed_time;
  Printf.printf "OPT:        stall=%d elapsed=%d\n\n" opt.Opt.stall
    (Instance.length inst + opt.Opt.stall);

  Printf.printf "Aggressive timeline:\n";
  Gantt.print inst agg_sched;
  Printf.printf "\nOPT timeline:\n";
  (* Single-disk solves always carry a witness. *)
  Gantt.print inst (Option.get opt.Opt.schedule);

  let ratio = float_of_int agg.Simulate.elapsed_time
              /. float_of_int (Instance.length inst + opt.Opt.stall) in
  Printf.printf "\nmeasured ratio %.3f vs per-phase formula %.3f, thm2 limit %.3f, thm1 bound %.3f\n"
    ratio
    (Bounds.theorem2_phase_ratio ~k ~f)
    (Bounds.aggressive_lower ~k ~f)
    (Bounds.aggressive_upper ~k ~f);
  Printf.printf "(the measured ratio climbs towards the limit as phases increase.\n";
  Printf.printf " Delay(d0) sidesteps the bait entirely: stall %d;\n"
    (Delay.stall_time ~d:(Bounds.delay_opt_d ~f) inst);
  Printf.printf " Combination picks by worst-case bounds, here Aggressive: stall %d)\n"
    (Combination.stall_time inst)
