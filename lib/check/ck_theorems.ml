(* Theorem oracles.  See ck_theorems.mli for the precise bound forms. *)

open Ck_oracle

let eps = 1e-9

(* Theorems 1-3 need the exact single-disk optimum. *)
let single_opt_applicable inst =
  if inst.Instance.num_disks <> 1 then
    Error "parallel instance (Theorems 1-3 are single-disk)"
  else if Instance.num_blocks inst > Opt.max_blocks then
    Error "too many distinct blocks for the DP optimum"
  else if Instance.length inst > 80 then Error "too long for the DP optimum"
  else Ok ()

let opt_elapsed inst = Instance.length inst + (Opt.solve_single inst).Opt.stall

let run_elapsed ~alg_name inst sched k =
  match Simulate.run inst sched with
  | Ok s -> k s.Simulate.elapsed_time
  | Error { Simulate.reason; at_time } ->
    failf ~schedule:sched "%s rejected by executor at t=%d: %s" alg_name at_time
      reason

(* Theorem 1, budget form: each phase of p = k + ceil(k/F) - 1 requests
   costs Aggressive at most F elapsed units more than optimal. *)
let theorem1_budget inst ~opt =
  let n = Instance.length inst in
  let k = inst.Instance.cache_size in
  let f = inst.Instance.fetch_time in
  let p = max 1 (k + Bounds.ceil_div k f - 1) in
  opt + (f * Bounds.ceil_div n p)

let theorem1 ?impl () =
  let alg_name, sched_of =
    match impl with Some (n, s) -> (n, s) | None -> ("aggressive", Aggressive.schedule)
  in
  make
    ~name:(Printf.sprintf "theorem1: %s within phase budget" alg_name)
    ~cls:Theorem
    (fun inst ->
      match single_opt_applicable inst with
      | Error why -> Skip why
      | Ok () ->
        let sched = sched_of inst in
        run_elapsed ~alg_name inst sched (fun elapsed ->
            let opt = opt_elapsed inst in
            let budget = theorem1_budget inst ~opt in
            if elapsed > budget then
              failf ~schedule:sched
                "%s elapsed %d exceeds Theorem-1 budget %d (opt=%d n=%d k=%d F=%d)"
                alg_name elapsed budget opt (Instance.length inst)
                inst.Instance.cache_size inst.Instance.fetch_time
            else Pass))

let theorem3_delay =
  make ~name:"theorem3: Delay(d) within bound" ~cls:Theorem (fun inst ->
      match single_opt_applicable inst with
      | Error why -> Skip why
      | Ok () ->
        let f = inst.Instance.fetch_time in
        let d0 = Bounds.delay_opt_d ~f in
        let opt = opt_elapsed inst in
        let ds = List.sort_uniq compare [ 0; 1; d0; d0 + 2 ] in
        let rec go = function
          | [] -> Pass
          | d :: rest ->
            let alg_name = Printf.sprintf "delay(%d)" d in
            let sched = Delay.schedule ~d inst in
            run_elapsed ~alg_name inst sched (fun elapsed ->
                let bound =
                  (Bounds.delay_bound ~d ~f *. float_of_int opt)
                  +. float_of_int f +. eps
                in
                if float_of_int elapsed > bound then
                  failf ~schedule:sched
                    "delay(%d) elapsed %d exceeds %.3f*opt + F = %.3f (opt=%d F=%d)"
                    d elapsed (Bounds.delay_bound ~d ~f) bound opt f
                else go rest)
        in
        go ds)

let corollary2_combination =
  make ~name:"corollary2: Combination within its branch bound" ~cls:Theorem
    (fun inst ->
      match single_opt_applicable inst with
      | Error why -> Skip why
      | Ok () ->
        let k = inst.Instance.cache_size in
        let f = inst.Instance.fetch_time in
        let sched = Combination.schedule inst in
        run_elapsed ~alg_name:"combination" inst sched (fun elapsed ->
            let opt = opt_elapsed inst in
            match Combination.choose ~k ~f with
            | Combination.Use_aggressive ->
              let budget = theorem1_budget inst ~opt in
              if elapsed > budget then
                failf ~schedule:sched
                  "combination (aggressive branch) elapsed %d exceeds budget %d \
                   (opt=%d k=%d F=%d)"
                  elapsed budget opt k f
              else Pass
            | Combination.Use_delay d ->
              let bound =
                (Bounds.delay_bound ~d ~f *. float_of_int opt)
                +. float_of_int f +. eps
              in
              if float_of_int elapsed > bound then
                failf ~schedule:sched
                  "combination (delay(%d) branch) elapsed %d exceeds %.3f \
                   (opt=%d F=%d)"
                  d elapsed bound opt f
              else Pass))

let conservative_2approx =
  make ~name:"conservative: 2-approximate (no slack)" ~cls:Theorem (fun inst ->
      match single_opt_applicable inst with
      | Error why -> Skip why
      | Ok () ->
        let sched = Conservative.schedule inst in
        run_elapsed ~alg_name:"conservative" inst sched (fun elapsed ->
            let opt = opt_elapsed inst in
            if elapsed > 2 * opt then
              failf ~schedule:sched
                "conservative elapsed %d exceeds 2*opt = %d" elapsed (2 * opt)
            else Pass))

(* Theorem 4 needs both the LP and the exhaustive parallel optimum, so
   only tiny instances qualify; the exact rational simplex also makes
   this the most expensive oracle, so it additionally subsamples
   (deterministically, by instance hash). *)
let theorem4_lp_sandwich =
  make ~name:"theorem4: LP <= OPT <= rounding" ~cls:Theorem (fun inst ->
      if
        Instance.length inst > differential_parallel_ceiling
        || Instance.num_blocks inst > 8
        || inst.Instance.num_disks > 2
      then Skip "too large for LP + exhaustive optimum"
      else begin
        let solve_opt ?extra_slots () =
          match
            Opt.solve_parallel ?extra_slots
              ~node_budget:differential_node_budget inst
          with
          | o -> Some o.Opt.stall
          | exception Opt.Solver_failure { failure = Opt.Budget_exhausted _; _ } -> None
        in
        match Sync_lp.lower_bound inst with
        | exception Sync_lp.Lp_infeasible ->
          Skip "synchronized LP infeasible on this instance"
        | lb -> (
          match solve_opt () with
          | None -> Skip "node budget exhausted"
          | Some opt ->
          if Rat.gt lb (Rat.of_int opt) then
            failf "LP lower bound %s exceeds exhaustive optimal stall %d"
              (Rat.to_string lb) opt
          else begin
            let r = Rounding.solve inst in
            let slots = r.Rounding.extra_slots_allowed in
            match solve_opt ~extra_slots:slots () with
            | None -> Skip "node budget exhausted"
            | Some opt_extra ->
            let rounded = r.Rounding.stats.Simulate.stall_time in
            if rounded < opt_extra then
              failf ~schedule:r.Rounding.schedule ~extra_slots:slots
                "rounded stall %d beats the exhaustive optimum %d with the \
                 same %d extra slots"
                rounded opt_extra slots
            else if r.Rounding.laminar && not r.Rounding.used_fallback && rounded > opt
            then
              failf ~schedule:r.Rounding.schedule ~extra_slots:slots
                "Theorem 4: rounded stall %d exceeds s_OPT(k) = %d (LP=%s, \
                 laminar rounding)"
                rounded opt (Rat.to_string lb)
            else Pass
          end)
      end)

let all =
  [
    theorem1 ();
    theorem3_delay;
    corollary2_combination;
    conservative_2approx;
    theorem4_lp_sandwich;
  ]
