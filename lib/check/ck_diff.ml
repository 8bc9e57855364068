(* Differential oracles.  See ck_diff.mli. *)

open Ck_oracle

(* Deterministic per-instance fault plan: moderate jitter and transient
   failures plus one early outage on disk 0.  Hashing the instance
   content keeps every oracle a pure function of the instance (and lets
   the shrinker re-derive a plan for each candidate). *)
let fault_plan inst =
  let seed =
    Hashtbl.hash
      ( Array.to_list inst.Instance.seq,
        inst.Instance.cache_size,
        inst.Instance.fetch_time,
        inst.Instance.initial_cache )
    land 0xFFFFFF
  in
  Faults.make ~seed ~jitter_prob:0.3 ~max_jitter:3 ~fail_prob:0.15
    ~outages:
      [ { Faults.disk = 0; from_time = 3; until_time = 3 + inst.Instance.fetch_time } ]
    ()

let baseline_schedule inst =
  if inst.Instance.num_disks = 1 then ("aggressive", Aggressive.schedule inst)
  else ("aggressive-D", Parallel_greedy.aggressive_schedule inst)

let opt_agreement =
  make ~name:"differential: DP optimum = exhaustive optimum" ~cls:Differential
    (fun inst ->
      if inst.Instance.num_disks <> 1 then Skip "parallel instance"
      else if
        Instance.length inst > differential_single_ceiling
        || Instance.num_blocks inst > differential_single_blocks
      then Skip "too large for the exhaustive search"
      else begin
        let budget = differential_node_budget in
        match
          ( Opt.solve_single ~node_budget:budget inst,
            Opt.solve_single ~node_budget:budget ~free_evict:true inst )
        with
        | exception Opt.Solver_failure { failure = Opt.Budget_exhausted _; _ } ->
          Skip "node budget exhausted"
        | dp, ex ->
          if dp.Opt.stall <> ex.Opt.stall then
            failf
              "greedy-content DP optimum (%d) disagrees with assumption-free \
               exhaustive optimum (%d)"
              dp.Opt.stall ex.Opt.stall
          else begin
            (* The DP witness must replay to exactly the claimed stall. *)
            match dp.Opt.schedule with
            | None -> failf "single-disk solver returned no witness schedule"
            | Some sched -> (
              match Simulate.stall_time inst sched with
              | Error e ->
                failf ~schedule:sched "DP witness rejected at t=%d: %s"
                  e.Simulate.at_time e.Simulate.reason
              | Ok realized ->
                if realized <> dp.Opt.stall then
                  failf ~schedule:sched
                    "DP witness realizes stall %d, solver claims %d" realized
                    dp.Opt.stall
                else Pass)
          end
      end)

let delay0_is_aggressive =
  make ~name:"differential: Delay(0) = Aggressive" ~cls:Differential (fun inst ->
      if inst.Instance.num_disks <> 1 then Skip "parallel instance"
      else begin
        let agg = Aggressive.schedule inst in
        let d0 = Delay.schedule ~d:0 inst in
        if agg <> d0 then
          failf ~schedule:d0
            "Delay(0) schedule differs from Aggressive's (%d vs %d ops)"
            (List.length d0) (List.length agg)
        else Pass
      end)

let peephole_monotone =
  make ~name:"differential: peephole never worsens, never beats OPT"
    ~cls:Differential (fun inst ->
      if inst.Instance.num_disks <> 1 then Skip "parallel instance"
      else if Instance.length inst > 50 then Skip "too long for peephole sweep"
      else begin
        let check_one (alg_name, sched) =
          match Simulate.stall_time inst sched with
          | Error _ -> None (* validity oracle owns rejections *)
          | Ok before -> (
            let optimized = Peephole.optimize ~max_passes:3 inst sched in
            match Simulate.stall_time inst optimized with
            | Error { Simulate.reason; at_time } ->
              Some
                (failf ~schedule:optimized
                   "peephole output on %s rejected at t=%d: %s" alg_name at_time
                   reason)
            | Ok after ->
              if after > before then
                Some
                  (failf ~schedule:optimized
                     "peephole increased %s stall from %d to %d" alg_name before
                     after)
              else if
                Instance.num_blocks inst <= Opt.max_blocks
                && after < (Opt.solve_single inst).Opt.stall
              then
                Some
                  (failf ~schedule:optimized
                     "peephole beat the exact optimum on %s (%d < %d)" alg_name
                     after (Opt.solve_single inst).Opt.stall)
              else None)
        in
        let cands =
          [
            ("conservative", Conservative.schedule inst);
            ("fixed_horizon", Fixed_horizon.schedule inst);
          ]
        in
        match List.find_map check_one cands with
        | Some failure -> failure
        | None -> Pass
      end)

(* Field-by-field stats equality (arrays compare structurally). *)
let stats_equal (a : Simulate.stats) (b : Simulate.stats) = a = b

let replay_none =
  make ~name:"differential: run_faulty(none) = run" ~cls:Differential (fun inst ->
      let alg_name, sched = baseline_schedule inst in
      let clean = Simulate.run ~attribution:true inst sched in
      let faulty =
        Simulate.run_faulty ~attribution:true ~faults:Faults.none inst sched
      in
      match (clean, faulty) with
      | Ok s, Ok (s', report) ->
        if not (stats_equal s s') then
          failf ~schedule:sched
            "run_faulty under the empty plan diverged from run on %s \
             (stall %d vs %d, elapsed %d vs %d)"
            alg_name s.Simulate.stall_time s'.Simulate.stall_time
            s.Simulate.elapsed_time s'.Simulate.elapsed_time
        else if report <> Faults.empty_report then
          failf ~schedule:sched
            "run_faulty under the empty plan produced a non-empty fault report"
        else Pass
      | Error e, _ ->
        failf ~schedule:sched "%s rejected by executor at t=%d: %s" alg_name
          e.Simulate.at_time e.Simulate.reason
      | Ok _, Error e ->
        failf ~schedule:sched
          "run_faulty rejected a schedule run accepts (t=%d: %s)"
          e.Simulate.at_time e.Simulate.reason)

let faulty_invariants =
  make ~name:"differential: faulty replay keeps identities" ~cls:Differential
    (fun inst ->
      let alg_name, sched = baseline_schedule inst in
      let faults = fault_plan inst in
      match Simulate.run inst sched with
      | Error e ->
        failf ~schedule:sched "%s rejected by executor at t=%d: %s" alg_name
          e.Simulate.at_time e.Simulate.reason
      | Ok clean -> (
        match Simulate.run_faulty ~faults inst sched with
        | Error _ ->
          (* Fixed-schedule replay may legitimately deadlock once a fetch
             is abandoned; the resilient oracle covers that regime. *)
          Pass
        | Ok (s, report) ->
          let n = Instance.length inst in
          if s.Simulate.elapsed_time <> n + s.Simulate.stall_time then
            failf ~schedule:sched "faulty run: elapsed (%d) <> n (%d) + stall (%d)"
              s.Simulate.elapsed_time n s.Simulate.stall_time
          else if report.Faults.fault_stall > s.Simulate.stall_time then
            failf ~schedule:sched "fault_stall %d exceeds total stall %d"
              report.Faults.fault_stall s.Simulate.stall_time
          else if s.Simulate.stall_time < clean.Simulate.stall_time then
            failf ~schedule:sched
              "faults improved stall: %d faulty < %d clean" s.Simulate.stall_time
              clean.Simulate.stall_time
          else if
            report.Faults.injected_jitter < 0
            || report.Faults.transient_failures < 0
            || report.Faults.retries < 0
            || report.Faults.fault_stall < 0
          then failf ~schedule:sched "negative counter in fault report"
          else Pass))

let resilient_safety =
  make ~name:"differential: resilient executor is total and consistent"
    ~cls:Differential (fun inst ->
      let alg_name, sched = baseline_schedule inst in
      let n = Instance.length inst in
      (* Under the empty plan the resilient executor must follow the plan
         faithfully. *)
      let clean =
        match Simulate.stall_time inst sched with
        | Ok st -> st
        | Error e ->
          raise
            (Driver.Invalid_schedule
               {
                 algorithm = alg_name;
                 at_time = e.Simulate.at_time;
                 reason = e.Simulate.reason;
               })
      in
      let quiet = Resilient.execute ~faults:Faults.none inst sched in
      if quiet.Resilient.stats.Simulate.stall_time <> clean then
        failf ~schedule:sched
          "resilient under the empty plan stalls %d, fault-free executor %d"
          quiet.Resilient.stats.Simulate.stall_time clean
      else begin
        let faults = fault_plan inst in
        let out = Resilient.execute ~faults inst sched in
        let s = out.Resilient.stats in
        let r = out.Resilient.report in
        if s.Simulate.elapsed_time <> n + s.Simulate.stall_time then
          failf ~schedule:sched "resilient: elapsed (%d) <> n (%d) + stall (%d)"
            s.Simulate.elapsed_time n s.Simulate.stall_time
        else if (r.Faults.replans > 0) <> (out.Resilient.replanned_at <> None) then
          failf ~schedule:sched
            "resilient: replans=%d but replanned_at %s" r.Faults.replans
            (match out.Resilient.replanned_at with
            | None -> "absent"
            | Some c -> Printf.sprintf "at cursor %d" c)
        else if out.Resilient.greedy_fetches < 0 then
          failf ~schedule:sched "resilient: negative greedy fetch count"
        else Pass
      end)

let all =
  [
    opt_agreement;
    delay0_is_aggressive;
    peephole_monotone;
    replay_none;
    faulty_invariants;
    resilient_safety;
  ]
