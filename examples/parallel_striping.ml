(* Parallel disks: the paper's two-disk example, then striped multi-stream
   workloads showing how the Section-3 LP pipeline uses disk parallelism
   and its 2(D-1) extra cache slots.

   Run with:  dune exec examples/parallel_striping.exe *)

let () =
  (* 1. The paper's example: b1..b4 on disk 1, c1..c3 on disk 2. *)
  let inst =
    Instance.parallel ~k:4 ~fetch_time:4 ~num_disks:2
      ~disk_of:[| 0; 0; 0; 0; 1; 1; 1 |]
      ~initial_cache:[ 0; 1; 4; 5 ]
      [| 0; 1; 4; 5; 2; 6; 3 |]
  in
  Format.printf "paper example: %a@." Instance.pp inst;
  let paper_schedule =
    [ Fetch_op.make ~at_cursor:1 ~disk:0 ~block:2 ~evict:(Some 0) ();
      Fetch_op.make ~at_cursor:2 ~disk:1 ~block:6 ~evict:(Some 1) ();
      Fetch_op.make ~at_cursor:4 ~delay:1 ~disk:0 ~block:3 ~evict:(Some 4) () ]
  in
  (match Simulate.run ~record_events:true inst paper_schedule with
   | Ok s ->
     Format.printf "the paper's hand schedule: %a@." Simulate.pp_stats s;
     List.iter (fun e -> Format.printf "  %a@." Simulate.pp_event e) s.Simulate.events
   | Error e -> Format.printf "rejected: %s@." e.Simulate.reason);
  Printf.printf "exhaustive optimum (no extra cache): stall %d\n" (Opt.solve_parallel inst).Opt.stall;
  let r = Rounding.solve inst in
  Printf.printf "LP pipeline: stall %d using %d extra slots (allowed %d)\n\n"
    r.Rounding.stats.Simulate.stall_time
    (Stdlib.max 0 (r.Rounding.stats.Simulate.peak_occupancy - 4))
    r.Rounding.extra_slots_allowed;

  (* 2. Interleaved streams over partitioned disks: D streams, one per
     disk.  More disks -> more overlap -> less stall, and the LP pipeline
     should dominate greedy dispatch.  (Periodic multi-stream workloads
     make the synchronized LP extremely degenerate, so the sweep stops at
     D = 2 to stay interactive; see E11 for D up to 4 on irregular
     workloads.) *)
  Printf.printf "interleaved streams on partitioned layouts (n=18, k=4, F=3):\n";
  Printf.printf "%-4s %-12s %-12s %-14s %-12s\n" "D" "LP bound" "LP+rounding" "aggressive-D" "reverse-agg";
  List.iter
    (fun d ->
       (* 3 blocks per stream keeps the synchronized LP within its
          interactive envelope (~1k variables) at D = 3. *)
       let seq = Workload.interleaved_streams ~n:18 ~num_streams:d ~blocks_per_stream:3 in
       let inst =
         Workload.parallel_instance ~k:4 ~fetch_time:3 ~num_disks:d
           ~layout:(fun ~num_blocks ~num_disks ->
               Workload.partitioned_layout ~num_blocks ~num_disks)
           seq
       in
       let r = Rounding.solve inst in
       Printf.printf "%-4d %-12s %-12d %-14d %-12d\n" d
         (Rat.to_string r.Rounding.lp_value)
         r.Rounding.stats.Simulate.stall_time
         (Parallel_greedy.aggressive_stall inst)
         (Reverse_aggressive.stall_time inst))
    [ 1; 2 ]
