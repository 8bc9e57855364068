(* Single-disk experiments (E1, E3-E8, E13 of DESIGN.md).

   The paper is theoretical, so each "experiment" validates the shape of a
   theorem: measured ratios against exact optima must respect the bounds,
   the lower-bound family must actually hurt Aggressive, the Delay(d) curve
   must dip near d0 = ceil((sqrt3-1)F/2), and Combination must track the
   winner everywhere. *)

let paper_example1 () =
  Instance.single_disk ~k:4 ~fetch_time:4 ~initial_cache:[ 0; 1; 2; 3 ]
    [| 0; 1; 2; 3; 3; 4; 0; 3; 3; 1 |]

(* E1: the introduction's worked example. *)
let e1 () : Tablefmt.t =
  let inst = paper_example1 () in
  let algorithms =
    Measure.single_disk_algorithms
    @ [ Measure.delay_algorithm 1; Measure.delay_algorithm 2;
        { Measure.name = "opt";
          schedule =
            (fun i ->
               match (Opt.solve_single i).Opt.schedule with
               | Some s -> s
               | None ->
                 Simulate.internal_error ~component:"E1" "single-disk optimum without a witness")
        } ]
  in
  let rows =
    List.map
      (fun (alg : Measure.algorithm) ->
         let s = Measure.stall inst alg in
         [ alg.Measure.name; string_of_int s; string_of_int (Instance.length inst + s) ])
      algorithms
  in
  Tablefmt.make ~title:"E1: paper intro example (sigma = b1 b2 b3 b4 b4 b5 b1 b4 b4 b2, k=4, F=4)"
    ~headers:[ "algorithm"; "stall"; "elapsed" ]
    ~notes:
      [ "paper: naive schedule stalls 3 (elapsed 13), better schedule stalls 1 (elapsed 11)";
        "Aggressive takes the naive option; OPT and Delay(1) find the better one" ]
    rows

(* Default (k, F) grid covering the regimes F << k, F ~ k, F > k. *)
let default_grid = [ (8, 2); (8, 4); (12, 4); (12, 6); (8, 8); (6, 9); (4, 12) ]

(* E3 + E8: measured elapsed-time ratios vs the Theorem 1 / Cao et al. /
   Conservative bounds. *)
let e3_e8 ?(grid = default_grid) ?(n = 100) () : Tablefmt.t =
  let rows =
    List.map
      (fun (k, f) ->
         let pool = Measure.instance_pool ~n ~k ~fetch_time:f () in
         let agg = Measure.elapsed_ratios (List.nth Measure.single_disk_algorithms 0) pool in
         let cons = Measure.elapsed_ratios (List.nth Measure.single_disk_algorithms 1) pool in
         [ string_of_int k; string_of_int f;
           Tablefmt.f2 agg.Measure.max_ratio;
           Tablefmt.f2 (Bounds.aggressive_upper ~k ~f);
           Tablefmt.f2 (Bounds.cao_aggressive_upper ~k ~f);
           Tablefmt.f2 cons.Measure.max_ratio;
           Tablefmt.f2 Bounds.conservative_upper ])
      grid
  in
  Tablefmt.make
    ~title:"E3/E8: Aggressive & Conservative measured worst ratios vs bounds (elapsed time)"
    ~headers:[ "k"; "F"; "agg max"; "thm1 bound"; "cao bound"; "cons max"; "cons bound" ]
    ~notes:
      [ "every measured ratio must be <= its bound; thm1 <= cao everywhere (the paper's improvement)" ]
    rows

(* E4: the Theorem 2 lower-bound family. *)
let e4 ?(cases = [ (5, 3); (7, 4); (9, 5); (7, 3); (13, 4) ]) ?(phases = 4) () : Tablefmt.t =
  let rows =
    List.map
      (fun (k, f) ->
         let inst = Workload.theorem2_lower_bound ~k ~fetch_time:f ~phases in
         let agg = float_of_int (Aggressive.elapsed_time inst) in
         let opt = float_of_int (Instance.length inst + (Opt.solve_single inst).Opt.stall) in
         let ratio = agg /. opt in
         [ string_of_int k; string_of_int f; string_of_int phases;
           Tablefmt.f2 ratio;
           Tablefmt.f2 (Bounds.theorem2_phase_ratio ~k ~f);
           Tablefmt.f2 (Bounds.aggressive_lower ~k ~f);
           Tablefmt.f2 (Bounds.aggressive_upper ~k ~f) ])
      cases
  in
  Tablefmt.make ~title:"E4: Theorem 2 adversarial family - Aggressive ratio vs asymptotic bounds"
    ~headers:[ "k"; "F"; "phases"; "measured"; "phase formula"; "thm2 limit"; "thm1 bound" ]
    ~notes:
      [ "measured tracks the per-phase formula 1+(F-2)/(k+l+2) and approaches the thm2 limit as phases grow";
        "measured never exceeds the thm1 upper bound (tightness of the analysis)" ]
    rows

(* E5/E6: the Delay(d) bound curve and measured ratios; the bound dips to
   ~sqrt(3) at d0. *)
let e5_e6 ?(f = 6) ?(k = 6) ?(n = 80) () : Tablefmt.t =
  let pool =
    Measure.instance_pool ~n ~k ~fetch_time:f ()
    @ [ Workload.theorem2_lower_bound ~k:(Workload.theorem2_round_k ~k ~fetch_time:f) ~fetch_time:f
          ~phases:3 ]
  in
  let d0 = Bounds.delay_opt_d ~f in
  let rows =
    List.map
      (fun d ->
         let r = Measure.elapsed_ratios (Measure.delay_algorithm d) pool in
         [ (string_of_int d ^ if d = d0 then " *" else "");
           Tablefmt.f2 (Bounds.delay_bound ~d ~f);
           Tablefmt.f2 r.Measure.max_ratio;
           Tablefmt.f2 r.Measure.mean_ratio ])
      (List.init (2 * f) (fun d -> d))
  in
  Tablefmt.make
    ~title:
      (Printf.sprintf "E5/E6: Delay(d) sweep, F=%d k=%d (d0 = %d marked *, sqrt3 = %.4f)" f k d0
         Bounds.sqrt3)
    ~headers:[ "d"; "thm3 bound"; "max ratio"; "mean ratio" ]
    ~notes:
      [ "the bound curve is minimized near d0 and tends to sqrt(3) ~ 1.732 for large F";
        "measured ratios stay below the bound on every workload" ]
    rows

(* E7: Combination tracks the better of Aggressive and Delay(d0). *)
let e7 ?(n = 100) () : Tablefmt.t =
  let regimes = [ (24, 2, "F << k"); (8, 8, "F = k"); (4, 12, "F >> k") ] in
  let rows =
    List.map
      (fun (k, f, label) ->
         let pool =
           Measure.instance_pool ~n ~k ~fetch_time:f ()
           @ (try
                let k' = Workload.theorem2_round_k ~k ~fetch_time:f in
                let l = (k' - 1) / (f - 1) in
                (* The construction uses (k-l) + (phases+1)*l distinct
                   blocks; keep within the exact-OPT block limit. *)
                if k' - l + (4 * l) <= 40 then
                  [ Workload.theorem2_lower_bound ~k:k' ~fetch_time:f ~phases:3 ]
                else []
              with Invalid_argument _ -> [])
         in
         let r alg = (Measure.elapsed_ratios alg pool).Measure.max_ratio in
         let agg = r (List.nth Measure.single_disk_algorithms 0) in
         let cons = r (List.nth Measure.single_disk_algorithms 1) in
         let comb = r (List.nth Measure.single_disk_algorithms 2) in
         let choice =
           match Combination.choose ~k ~f with
           | Combination.Use_aggressive -> "aggressive"
           | Combination.Use_delay d -> Printf.sprintf "delay(%d)" d
         in
         [ label; string_of_int k; string_of_int f; Tablefmt.f2 agg; Tablefmt.f2 cons;
           Tablefmt.f2 comb; choice; Tablefmt.f2 (Bounds.combination_bound ~k ~f) ])
      regimes
  in
  Tablefmt.make ~title:"E7: Combination vs Aggressive vs Conservative across regimes (max ratio)"
    ~headers:[ "regime"; "k"; "F"; "aggressive"; "conservative"; "combination"; "choice"; "comb bound" ]
    ~notes:[ "Combination selects Aggressive when 1+F/(k+ceil(k/F)-1) < c0, else Delay(d0)" ]
    rows

(* E13: lookahead degradation of the online variant. *)
let e13 ?(k = 6) ?(f = 4) ?(n = 150) () : Tablefmt.t =
  let pools =
    [ ("scan", Workload.sequential_scan ~n ~num_blocks:14);
      ("zipf", Workload.zipf ~seed:11 ~alpha:0.9 ~n ~num_blocks:14);
      ("lru_stack", Workload.lru_stack ~seed:11 ~n ~num_blocks:14 ~p:0.5) ]
  in
  let lookaheads = [ 1; f; 2 * f; 4 * f; n ] in
  let rows =
    List.map
      (fun (name, seq) ->
         let inst = Workload.single_instance ~k ~fetch_time:f seq in
         let opt = float_of_int (Instance.length inst + (Opt.solve_single inst).Opt.stall) in
         name
         :: List.map
           (fun l ->
              let e = float_of_int (Online.elapsed_time (Online.aggressive ~lookahead:l) inst) in
              Tablefmt.f2 (e /. opt))
           lookaheads)
      pools
  in
  Tablefmt.make
    ~title:(Printf.sprintf "E13: online Aggressive, elapsed ratio vs OPT as lookahead grows (k=%d F=%d)" k f)
    ~headers:("workload" :: List.map (fun l -> Printf.sprintf "l=%d" l) lookaheads)
    ~notes:[ "l = n recovers offline Aggressive; shrinking lookahead degrades gracefully to LRU-like caching" ]
    rows

let all () = [ e1 (); e3_e8 (); e4 (); e5_e6 (); e7 (); e13 () ]
