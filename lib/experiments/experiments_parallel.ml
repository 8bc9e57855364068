(* Parallel-disk experiments (E2, E9-E12 of DESIGN.md). *)

let paper_example2 () =
  Instance.parallel ~k:4 ~fetch_time:4 ~num_disks:2
    ~disk_of:[| 0; 0; 0; 0; 1; 1; 1 |]
    ~initial_cache:[ 0; 1; 4; 5 ]
    [| 0; 1; 4; 5; 2; 6; 3 |]

(* E2: the two-disk intro example. *)
let e2 () : Tablefmt.t =
  let inst = paper_example2 () in
  let r = Rounding.solve inst in
  let rows =
    [ [ "aggressive-D"; string_of_int (Parallel_greedy.aggressive_stall inst); "0" ];
      [ "conservative-D"; string_of_int (Parallel_greedy.conservative_stall inst); "0" ];
      [ "reverse-aggressive"; string_of_int (Reverse_aggressive.stall_time inst); "0" ];
      [ "LP + rounding";
        string_of_int r.Rounding.stats.Simulate.stall_time;
        string_of_int (Stdlib.max 0 (r.Rounding.stats.Simulate.peak_occupancy - inst.Instance.cache_size)) ];
      [ "exhaustive OPT (k cache)"; string_of_int (Opt.solve_parallel inst).Opt.stall; "0" ] ]
  in
  Tablefmt.make ~title:"E2: paper two-disk example (sigma = b1 b2 c1 c2 b3 c3 b4, k=4, F=4, D=2)"
    ~headers:[ "algorithm"; "stall"; "extra slots used" ]
    ~notes:[ "the paper's hand schedule stalls 3, which is optimal without extra cache" ]
    rows

let tiny_instances ?(count = 20) ~num_disks () : Instance.t list =
  List.init count (fun i ->
      let seed = 100 + i in
      let n = 5 + (i mod 4) in
      let nb = 4 + (i mod 3) in
      let seq = Workload.uniform ~seed ~n ~num_blocks:nb in
      let layout =
        match i mod 3 with
        | 0 -> Workload.striped_layout
        | 1 -> Workload.partitioned_layout
        | _ -> fun ~num_blocks ~num_disks -> Workload.random_layout ~seed ~num_blocks ~num_disks
      in
      Workload.parallel_instance ~k:(2 + (i mod 3)) ~fetch_time:(1 + (i mod 3)) ~num_disks ~layout
        seq)

(* E9: Lemma 3 - the synchronized LP's value never exceeds the true
   (unsynchronized, no-extra-slot) optimum. *)
let e9 ?(count = 20) () : Tablefmt.t =
  let rows =
    List.map
      (fun d ->
         let insts = tiny_instances ~count ~num_disks:d () in
         let gaps =
           List.map
             (fun inst ->
                let lp = Rat.to_float (Sync_lp.lower_bound inst) in
                let opt = float_of_int (Opt.solve_parallel inst).Opt.stall in
                opt -. lp)
             insts
         in
         let violations = List.length (List.filter (fun g -> g < -1e-9) gaps) in
         let mean = List.fold_left ( +. ) 0.0 gaps /. float_of_int count in
         [ string_of_int d; string_of_int count; string_of_int violations; Tablefmt.f2 mean ])
      [ 1; 2; 3 ]
  in
  Tablefmt.make ~title:"E9: Lemma 3 - synchronized LP value <= exhaustive OPT stall"
    ~headers:[ "D"; "instances"; "violations"; "mean (OPT - LP)" ]
    ~notes:[ "violations must be 0: synchronization + D-1 extra slots costs nothing" ]
    rows

(* E10: Theorem 4 end-to-end. *)
let e10 ?(count = 20) () : Tablefmt.t =
  let rows =
    List.map
      (fun d ->
         let insts = tiny_instances ~count ~num_disks:d () in
         let results =
           List.map
             (fun inst ->
                let r = Rounding.solve inst in
                let opt = (Opt.solve_parallel inst).Opt.stall in
                let extra =
                  Stdlib.max 0 (r.Rounding.stats.Simulate.peak_occupancy - inst.Instance.cache_size)
                in
                (r.Rounding.stats.Simulate.stall_time, opt, extra, r.Rounding.used_fallback))
             insts
         in
         let violations = List.length (List.filter (fun (s, o, _, _) -> s > o) results) in
         let fallbacks = List.length (List.filter (fun (_, _, _, fb) -> fb) results) in
         let max_extra = List.fold_left (fun a (_, _, e, _) -> Stdlib.max a e) 0 results in
         let wins = List.length (List.filter (fun (s, o, _, _) -> s < o) results) in
         [ string_of_int d; string_of_int count; string_of_int violations;
           string_of_int max_extra; string_of_int (2 * (d - 1)); string_of_int wins;
           string_of_int fallbacks ])
      [ 1; 2; 3 ]
  in
  Tablefmt.make ~title:"E10: Theorem 4 - rounded schedule stall <= OPT with <= 2(D-1) extra slots"
    ~headers:[ "D"; "instances"; "stall>OPT"; "max extra"; "2(D-1)"; "beats OPT"; "fallbacks" ]
    ~notes:
      [ "stall>OPT must be 0 (Theorem 4); 'beats OPT' counts instances where the extra slots";
        "let the schedule do strictly better than the no-extra-slot optimum" ]
    rows

(* E11: baselines vs the LP pipeline on medium instances (no exhaustive OPT
   here; the LP value is the certified lower bound). *)
let e11 ?(n = 24) ?(f = 3) ?(k = 4) () : Tablefmt.t =
  let mk d layout_name layout seed =
    let seq = Workload.zipf ~seed ~alpha:0.8 ~n ~num_blocks:12 in
    (d, layout_name, Workload.parallel_instance ~k ~fetch_time:f ~num_disks:d ~layout seq)
  in
  let cases =
    [ mk 2 "striped" Workload.striped_layout 2;
      mk 2 "partitioned" Workload.partitioned_layout 3;
      mk 3 "striped" Workload.striped_layout 4;
      mk 3 "hot-disk"
        (fun ~num_blocks ~num_disks ->
           Workload.hot_disk_layout ~seed:5 ~num_blocks ~num_disks ~hot_fraction:0.6)
        5;
      mk 4 "striped" Workload.striped_layout 6 ]
  in
  let rows =
    List.map
      (fun (d, layout_name, inst) ->
         let r = Rounding.solve inst in
         [ string_of_int d; layout_name;
           Rat.to_string r.Rounding.lp_value;
           string_of_int r.Rounding.stats.Simulate.stall_time;
           string_of_int (Parallel_greedy.aggressive_stall inst);
           string_of_int (Parallel_greedy.conservative_stall inst);
           string_of_int (Reverse_aggressive.stall_time inst) ])
      cases
  in
  Tablefmt.make
    ~title:(Printf.sprintf "E11: parallel baselines vs LP pipeline (n=%d F=%d k=%d, stall time)" n f k)
    ~headers:[ "D"; "layout"; "LP bound"; "LP+rounding"; "aggressive-D"; "conservative-D"; "reverse-agg" ]
    ~notes:[ "the LP pipeline should dominate the greedy baselines, most visibly on skewed layouts" ]
    rows

(* E12: single-disk LP integrality. *)
let e12 ?(count = 30) () : Tablefmt.t =
  let insts = tiny_instances ~count ~num_disks:1 () in
  let integral, equal_opt =
    List.fold_left
      (fun (i, e) inst ->
         let lp = Sync_lp.lower_bound inst in
         let opt = (Opt.solve_single inst).Opt.stall in
         ((if Rat.is_integer lp then i + 1 else i), if Rat.equal lp (Rat.of_int opt) then e + 1 else e))
      (0, 0) insts
  in
  Tablefmt.make ~title:"E12: single-disk LP integrality (Albers-Garg-Leonardi property)"
    ~headers:[ "instances"; "integral LP optimum"; "LP = combinatorial OPT" ]
    ~notes:[ "both counts must equal the instance count" ]
    [ [ string_of_int count; string_of_int integral; string_of_int equal_opt ] ]

(* E14 (extension): certified integral synchronized optima via branch and
   bound, sandwiching the rounding pipeline. *)
let e14 ?(count = 10) () : Tablefmt.t =
  let rows =
    List.map
      (fun d ->
         let insts = tiny_instances ~count ~num_disks:d () in
         let bad_lp = ref 0 and bad_round = ref 0 and unproved = ref 0 and gaps = ref 0 in
         List.iter
           (fun inst ->
              let r = Rounding.solve inst in
              let ilp = Sync_ilp.solve inst in
              if not ilp.Sync_ilp.proved_optimal then incr unproved;
              if Rat.gt r.Rounding.lp_value ilp.Sync_ilp.stall then incr bad_lp;
              if Rat.gt (Rat.of_int r.Rounding.stats.Simulate.stall_time) ilp.Sync_ilp.stall then
                incr bad_round;
              if Rat.lt r.Rounding.lp_value ilp.Sync_ilp.stall then incr gaps)
           insts;
         [ string_of_int d; string_of_int count; string_of_int !bad_lp; string_of_int !bad_round;
           string_of_int !gaps; string_of_int !unproved ])
      [ 1; 2; 3 ]
  in
  Tablefmt.make
    ~title:"E14 (ext): branch-and-bound integral synchronized optima vs LP and rounding"
    ~headers:[ "D"; "instances"; "LP > ILP"; "rounded > ILP"; "LP < ILP (gap)"; "unproved" ]
    ~notes:
      [ "LP > ILP and rounded > ILP must be 0; an integrality gap (LP < ILP) is possible because";
        "the ILP only gets the paper's D-1 padding slots while rounding may use 2(D-1)" ]
    [ List.nth rows 0; List.nth rows 1; List.nth rows 2 ]

let all () = [ e2 (); e9 (); e10 (); e11 (); e12 (); e14 () ]
