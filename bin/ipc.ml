(* ipc - command-line driver for the integrated prefetching/caching
   reproduction.

   Subcommands:
     simulate    run one algorithm on a generated workload, print the trace
     compare     run all single-disk algorithms on a workload
     sweep       reproduce E3/E8 (ratio sweeps vs bounds)
     lowerbound  reproduce E4 (Theorem 2 family)
     delay       reproduce E5/E6 (Delay(d) sweep)
     parallel    reproduce E2/E9/E10/E11 (parallel-disk experiments)
     lp          solve one instance with the synchronized LP and print the
                 fractional optimum and the rounded schedule
     experiments run the complete E1-E15 battery
     profile     run one algorithm and write a Chrome trace-event timeline
     faults      run one workload under an injected fault plan and print
                 the clean / faulty / re-planned degradation table
     stream      run a prefetch policy online over a streaming request
                 source with a bounded lookahead window, constant memory
     fuzz        property-based conformance fuzzing: generated instances
                 checked against validity, accounting, theorem-bound and
                 differential oracles, with shrunk counterexamples
     opt         solve one instance exactly with the branch-and-bound
                 engine and print the optimum (and --stats: node counts)
     scale       smoke-report the driver hot paths at 10^5..10^6 requests
     explain     run one workload with the provenance event log on and
                 print the decision events (filtered by --at T / --block B)
     report      render a metrics JSONL dump (and optional event log) as
                 a self-contained HTML report
     bench-diff  compare two bench snapshots and gate on per-benchmark
                 slowdown ratios

   Every subcommand also accepts --metrics[=PATH]: enable the telemetry
   registry for the run and dump it as JSONL when the command finishes.
   simulate/profile/scale additionally accept --events[=PATH]: enable
   the decision-provenance event log and dump it as JSONL. *)

open Cmdliner

(* --metrics[=PATH], shared by all subcommands. *)
let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "metrics.jsonl") (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "Enable the telemetry registry and, when the command finishes, dump every \
           registered metric as JSON-lines to $(docv) (default $(b,metrics.jsonl)).")

let with_metrics metrics f =
  (match metrics with Some _ -> Telemetry.set_enabled true | None -> ());
  Fun.protect f ~finally:(fun () ->
      match metrics with
      | None -> ()
      | Some path ->
        (try
           Metrics_export.write_file path (Telemetry.snapshot ());
           Printf.eprintf "metrics: wrote %s\n%!" path
         with Sys_error msg ->
           (* A failed dump should not mask the command's own result:
              record a structured note (any later report or event dump
              will carry it) as well as telling the user. *)
           Event_log.note ~component:"metrics" "failed to write %s: %s" path msg;
           Printf.eprintf "metrics: %s\n%!" msg))

(* --events[=PATH], the decision-provenance log (simulate/profile/scale). *)
let events_arg =
  Arg.(
    value
    & opt ~vopt:(Some "events.jsonl") (some string) None
    & info [ "events" ] ~docv:"PATH"
        ~doc:
          "Enable the decision-provenance event log and, when the command finishes, dump the \
           retained events as JSON-lines to $(docv) (default $(b,events.jsonl)).")

let with_events events f =
  (match events with
   | Some _ ->
     Event_log.set_enabled true;
     Event_log.clear ()
   | None -> ());
  Fun.protect f ~finally:(fun () ->
      match events with
      | None -> ()
      | Some path ->
        (try
           Event_log.write_file path (Event_log.contents ());
           Printf.eprintf "events: wrote %s (%d recorded, %d lost to the ring bound)\n%!" path
             (Event_log.recorded ()) (Event_log.dropped ())
         with Sys_error msg -> Printf.eprintf "events: %s\n%!" msg))

let workload_conv =
  let parse s =
    if List.exists (fun (f : Workload.family) -> f.Workload.name = s) Workload.families then Ok s
    else
      Error
        (`Msg
           (Printf.sprintf "unknown workload %s (choose from: %s)" s
              (String.concat ", " (List.map (fun (f : Workload.family) -> f.Workload.name) Workload.families))))
  in
  Arg.conv (parse, Format.pp_print_string)

let family name = List.find (fun (f : Workload.family) -> f.Workload.name = name) Workload.families

(* Common options. *)
let k_arg = Arg.(value & opt int 8 & info [ "k"; "cache" ] ~doc:"Cache size k.")
let f_arg = Arg.(value & opt int 4 & info [ "f"; "fetch-time" ] ~doc:"Fetch time F.")
let n_arg = Arg.(value & opt int 100 & info [ "n"; "length" ] ~doc:"Request sequence length.")
let blocks_arg = Arg.(value & opt int 12 & info [ "b"; "blocks" ] ~doc:"Number of distinct blocks.")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload generator seed.")

let workload_arg =
  Arg.(value & opt workload_conv "zipf" & info [ "w"; "workload" ] ~doc:"Workload family.")

let mk_instance name ~seed ~n ~blocks ~k ~f =
  Workload.single_instance ~k ~fetch_time:f ((family name).Workload.generate ~seed ~n ~num_blocks:blocks)

let alg_arg =
  Arg.(
    value
    & opt (enum [ ("aggressive", `Agg); ("conservative", `Cons); ("combination", `Comb); ("opt", `Opt) ]) `Agg
    & info [ "a"; "algorithm" ] ~doc:"Algorithm: aggressive|conservative|combination|opt.")

let schedule_of alg inst =
  match alg with
  | `Agg -> Aggressive.schedule inst
  | `Cons -> Conservative.schedule inst
  | `Comb -> Combination.schedule inst
  | `Opt -> (
    match (Opt.solve_single inst).Opt.schedule with
    | Some s -> s
    | None -> Simulate.internal_error ~component:"ipc" "single-disk optimum without a witness")

(* simulate *)
let simulate_cmd =
  let trace_arg = Arg.(value & flag & info [ "trace" ] ~doc:"Print the full event trace.") in
  let gantt_arg = Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart.") in
  let file_arg =
    Arg.(value & opt (some string) None & info [ "file" ] ~doc:"Load the instance from a trace file instead of generating it.")
  in
  let run metrics events wname seed n blocks k f alg trace gantt file =
    with_metrics metrics @@ fun () ->
    with_events events @@ fun () ->
    let inst =
      match file with
      | Some path -> Trace_io.load_instance path
      | None -> mk_instance wname ~seed ~n ~blocks ~k ~f
    in
    let schedule = schedule_of alg inst in
    match Simulate.run ~record_events:trace inst schedule with
    | Error e -> Printf.printf "invalid schedule at t=%d: %s\n" e.Simulate.at_time e.Simulate.reason
    | Ok stats ->
      Format.printf "%a@.%a@." Instance.pp inst Simulate.pp_stats stats;
      if trace then List.iter (fun ev -> Format.printf "%a@." Simulate.pp_event ev) stats.Simulate.events;
      if gantt then Gantt.print inst schedule
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run one algorithm on a generated workload.")
    Term.(const run $ metrics_arg $ events_arg $ workload_arg $ seed_arg $ n_arg $ blocks_arg $ k_arg $ f_arg $ alg_arg $ trace_arg $ gantt_arg $ file_arg)

(* profile: one run, exported as a Chrome trace-event timeline. *)
let profile_cmd =
  let out_arg =
    Arg.(value & opt string "trace.json" & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Trace output file.")
  in
  let run metrics events wname seed n blocks k f alg out =
    with_metrics metrics @@ fun () ->
    with_events events @@ fun () ->
    let inst = mk_instance wname ~seed ~n ~blocks ~k ~f in
    let schedule = schedule_of alg inst in
    match Simulate.run ~record_events:true ~attribution:true inst schedule with
    | Error e -> Printf.printf "invalid schedule at t=%d: %s\n" e.Simulate.at_time e.Simulate.reason
    | Ok stats ->
      (* With --events the trace gains a "decisions" lane: scheduler
         decisions (from the driver) and executor stalls on the same
         simulated clock as the disk lanes. *)
      let provenance = if events <> None then Some (Event_log.contents ()) else None in
      Sim_trace.write_file ?provenance out inst stats;
      Format.printf "%a@.%a@." Instance.pp inst Simulate.pp_stats stats;
      let invol = List.fold_left (fun a fs -> a + fs.Simulate.involuntary_stall) 0 stats.Simulate.stall_by_fetch in
      let vol = List.fold_left (fun a fs -> a + fs.Simulate.voluntary_stall) 0 stats.Simulate.stall_by_fetch in
      Printf.printf "stall attribution: involuntary=%d voluntary-delay=%d (total %d)\n" invol vol
        stats.Simulate.stall_time;
      Printf.printf "wrote %s - open it at https://ui.perfetto.dev or chrome://tracing\n" out
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run one algorithm and write a Chrome trace-event (Perfetto) timeline of the simulation.")
    Term.(const run $ metrics_arg $ events_arg $ workload_arg $ seed_arg $ n_arg $ blocks_arg $ k_arg $ f_arg $ alg_arg $ out_arg)

(* compare *)
let compare_cmd =
  let run metrics wname seed n blocks k f =
    with_metrics metrics @@ fun () ->
    let inst = mk_instance wname ~seed ~n ~blocks ~k ~f in
    let opt = (Opt.solve_single inst).Opt.stall in
    let rows =
      List.map
        (fun (alg : Measure.algorithm) ->
           (* One simulation per algorithm serves both columns. *)
           let stats = Measure.run_stats inst alg in
           let s = stats.Simulate.stall_time in
           [ alg.Measure.name; string_of_int s;
             Printf.sprintf "%.3f" (float_of_int stats.Simulate.elapsed_time /. float_of_int (n + opt)) ])
        (Measure.all_single_disk_algorithms
         @ [ Measure.delay_algorithm (Bounds.delay_opt_d ~f) ])
      @ [ [ "opt"; string_of_int opt; "1.000" ] ]
    in
    Tablefmt.print
      (Tablefmt.make
         ~title:(Printf.sprintf "%s workload: n=%d blocks=%d k=%d F=%d" wname n blocks k f)
         ~headers:[ "algorithm"; "stall"; "elapsed ratio" ] rows)
  in
  Cmd.v (Cmd.info "compare" ~doc:"Compare all single-disk algorithms on one workload.")
    Term.(const run $ metrics_arg $ workload_arg $ seed_arg $ n_arg $ blocks_arg $ k_arg $ f_arg)

(* Experiment wrappers. *)
let table_cmd name doc mk =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun metrics -> with_metrics metrics (fun () -> List.iter Tablefmt.print (mk ())))
      $ metrics_arg)

let sweep_cmd = table_cmd "sweep" "Reproduce E3/E8: ratio sweeps vs bounds." (fun () -> [ Experiments_single.e3_e8 () ])
let lower_cmd = table_cmd "lowerbound" "Reproduce E4: the Theorem 2 family." (fun () -> [ Experiments_single.e4 () ])
let delay_cmd = table_cmd "delay" "Reproduce E5/E6: the Delay(d) sweep." (fun () -> [ Experiments_single.e5_e6 () ])

let parallel_cmd =
  table_cmd "parallel" "Reproduce E2/E9/E10/E11: parallel-disk experiments."
    (fun () ->
       [ Experiments_parallel.e2 (); Experiments_parallel.e9 (); Experiments_parallel.e10 ();
         Experiments_parallel.e11 () ])

let experiments_cmd =
  table_cmd "experiments" "Run the complete E1-E16 battery."
    (fun () ->
       Experiments_single.all () @ Experiments_parallel.all () @ Experiments_faults.all ()
       @ Experiments_delayed.all ())

(* Stochastic fetch-latency plan syntax, shared by faults and delayed:
   planned | const:C | uniform:LO:HI | pareto:XM:ALPHA:CAP. *)
let latency_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "planned" ] -> Ok Faults.Planned
    | [ "const"; c ] ->
      (match int_of_string_opt c with
       | Some c when c >= 1 -> Ok (Faults.Const c)
       | _ -> Error (`Msg (Printf.sprintf "bad constant latency %s (need const:C with C >= 1)" s)))
    | [ "uniform"; lo; hi ] ->
      (match (int_of_string_opt lo, int_of_string_opt hi) with
       | Some lo, Some hi when 1 <= lo && lo <= hi -> Ok (Faults.Uniform { lo; hi })
       | _ -> Error (`Msg (Printf.sprintf "bad uniform latency %s (need uniform:LO:HI with 1 <= LO <= HI)" s)))
    | [ "pareto"; xm; alpha; cap ] ->
      (match (int_of_string_opt xm, float_of_string_opt alpha, int_of_string_opt cap) with
       | Some xm, Some alpha, Some cap when xm >= 1 && cap >= xm && alpha > 0.0 ->
         Ok (Faults.Pareto { xm; alpha; cap })
       | _ ->
         Error
           (`Msg
              (Printf.sprintf
                 "bad pareto latency %s (need pareto:XM:ALPHA:CAP with XM >= 1, CAP >= XM, ALPHA > 0)"
                 s)))
    | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "bad latency plan %s (planned | const:C | uniform:LO:HI | pareto:XM:ALPHA:CAP)" s))
  in
  Arg.conv (parse, Faults.pp_latency)

let latency_arg =
  Arg.(
    value
    & opt latency_conv Faults.Planned
    & info [ "latency" ] ~docv:"DIST"
        ~doc:
          "Stochastic fetch-latency distribution: $(b,planned) (the instance's F), $(b,const:C), \
           $(b,uniform:LO:HI) or $(b,pareto:XM:ALPHA:CAP) (bounded Pareto).")

(* faults: one workload under an injected fault plan, per-algorithm
   degradation table (clean plan / plan under faults / re-planned). *)
let faults_cmd =
  let fault_seed_arg =
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~doc:"Fault plan seed (independent of the workload seed).")
  in
  let jitter_prob_arg =
    Arg.(value & opt float 0. & info [ "jitter-prob" ] ~doc:"Per-fetch probability of latency jitter.")
  in
  let jitter_arg =
    Arg.(value & opt int 0 & info [ "jitter" ] ~docv:"UNITS" ~doc:"Maximum extra fetch latency (makes the fetch take F+delta).")
  in
  let fail_prob_arg =
    Arg.(value & opt float 0. & info [ "fail-prob" ] ~doc:"Per-attempt probability of transient fetch failure (must be < 1).")
  in
  let retry_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ "immediate" ] -> Ok Faults.Immediate
      | [ "fixed"; d ] ->
        (match int_of_string_opt d with
         | Some d when d >= 0 -> Ok (Faults.Fixed d)
         | _ -> Error (`Msg (Printf.sprintf "bad fixed backoff: %s" s)))
      | [ "exp"; b; f; m ] ->
        (match (int_of_string_opt b, int_of_string_opt f, int_of_string_opt m) with
         | Some base, Some factor, Some max_delay when base >= 0 && factor >= 1 && max_delay >= 0 ->
           Ok (Faults.Exponential { base; factor; max_delay })
         | _ -> Error (`Msg (Printf.sprintf "bad exponential backoff: %s" s)))
      | _ -> Error (`Msg (Printf.sprintf "bad retry policy %s (immediate | fixed:D | exp:BASE:FACTOR:MAX)" s))
    in
    let print fmt (b : Faults.backoff) =
      match b with
      | Faults.Immediate -> Format.fprintf fmt "immediate"
      | Faults.Fixed d -> Format.fprintf fmt "fixed:%d" d
      | Faults.Exponential { base; factor; max_delay } ->
        Format.fprintf fmt "exp:%d:%d:%d" base factor max_delay
    in
    Arg.conv (parse, print)
  in
  let retry_arg =
    Arg.(
      value
      & opt retry_conv Faults.default_retry.Faults.backoff
      & info [ "retry" ] ~docv:"POLICY"
          ~doc:"Retry backoff: $(b,immediate), $(b,fixed:D) or $(b,exp:BASE:FACTOR:MAX).")
  in
  let attempts_arg =
    Arg.(value & opt int Faults.default_retry.Faults.max_attempts
         & info [ "max-attempts" ] ~doc:"Attempts per fetch before it is abandoned.")
  in
  let outage_conv =
    let parse s =
      match String.split_on_char ':' s |> List.map int_of_string_opt with
      | [ Some disk; Some from_time; Some until_time ] when until_time > from_time && from_time >= 0 && disk >= 0 ->
        Ok { Faults.disk; from_time; until_time }
      | _ -> Error (`Msg (Printf.sprintf "bad outage %s (expected DISK:START:END with END > START)" s))
    in
    let print fmt (o : Faults.outage) =
      Format.fprintf fmt "%d:%d:%d" o.Faults.disk o.Faults.from_time o.Faults.until_time
    in
    Arg.conv (parse, print)
  in
  let outage_arg =
    Arg.(value & opt_all outage_conv [] & info [ "outage" ] ~docv:"DISK:START:END"
         ~doc:"Whole-disk outage window (repeatable).")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
         ~doc:"Also write a Chrome trace of the re-planned run (with a fault lane) to $(docv).")
  in
  let run metrics wname seed n blocks k f fault_seed jitter_prob jitter fail_prob backoff attempts
      outages latency trace_out =
    with_metrics metrics @@ fun () ->
    let inst = mk_instance wname ~seed ~n ~blocks ~k ~f in
    let faults =
      Faults.make ~seed:fault_seed ~jitter_prob ~max_jitter:jitter ~fail_prob
        ~retry:{ Faults.backoff; max_attempts = attempts } ~outages ~latency ()
    in
    Format.printf "%a@.faults: %a@." Instance.pp inst Faults.pp faults;
    let algorithms =
      [ ("aggressive", Aggressive.schedule inst); ("conservative", Conservative.schedule inst);
        ("combination", Combination.schedule inst) ]
    in
    let rows =
      List.map
        (fun (name, sched) ->
           let clean = (Driver.validate ~name inst sched).Simulate.stall_time in
           let faulty =
             match Simulate.run_faulty ~faults inst sched with
             | Ok (s, r) ->
               Printf.sprintf "%d (+%d fault)" s.Simulate.stall_time r.Faults.fault_stall
             | Error e -> Printf.sprintf "deadlock at t=%d" e.Simulate.at_time
           in
           let o = Resilient.execute ~faults inst sched in
           [ name; string_of_int clean; faulty;
             string_of_int o.Resilient.stats.Simulate.stall_time;
             string_of_int o.Resilient.report.Faults.retries;
             string_of_int o.Resilient.report.Faults.abandoned;
             string_of_int o.Resilient.report.Faults.replans;
             (match o.Resilient.replanned_at with None -> "-" | Some c -> Printf.sprintf "r%d" (c + 1)) ])
        algorithms
    in
    Tablefmt.print
      (Tablefmt.make
         ~title:(Printf.sprintf "fault degradation: %s n=%d k=%d F=%d" wname n k f)
         ~headers:[ "algorithm"; "clean"; "faulty plan"; "re-planned"; "retries"; "abandoned";
                    "replans"; "replan at" ]
         rows);
    match trace_out with
    | None -> ()
    | Some path ->
      let sched = Aggressive.schedule inst in
      let o = Resilient.execute ~record_events:true ~faults inst sched in
      Sim_trace.write_file ~faults:o.Resilient.report path inst o.Resilient.stats;
      Printf.printf "wrote %s - open it at https://ui.perfetto.dev or chrome://tracing\n" path
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Run one workload under an injected fault plan and print the degradation table.")
    Term.(
      const run $ metrics_arg $ workload_arg $ seed_arg $ n_arg $ blocks_arg $ k_arg $ f_arg
      $ fault_seed_arg $ jitter_prob_arg $ jitter_arg $ fail_prob_arg $ retry_arg $ attempts_arg
      $ outage_arg $ latency_arg $ trace_out_arg)

(* delayed: the delayed-hit executor under a stochastic latency plan,
   per-algorithm queueing table (classic stall vs delayed stall / hits /
   wait / queue depth). *)
let delayed_cmd =
  let window_arg =
    Arg.(value & opt int 4 & info [ "window" ] ~docv:"W"
         ~doc:"Wait-queue window: max simultaneously parked requests (0 = classic executor).")
  in
  let fault_seed_arg =
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~doc:"Latency plan seed (independent of the workload seed).")
  in
  let gantt_arg =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart (with the waitq row) for the selected algorithm.")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
         ~doc:"Write a Chrome trace of the selected algorithm's delayed run (with a waitq lane) to $(docv).")
  in
  let run metrics events wname seed n blocks k f alg window latency fault_seed gantt trace_out =
    with_metrics metrics @@ fun () ->
    with_events events @@ fun () ->
    let inst = mk_instance wname ~seed ~n ~blocks ~k ~f in
    let faults = Faults.make ~seed:fault_seed ~latency () in
    Format.printf "%a@.plan: %a window=%d@." Instance.pp inst Faults.pp_latency
      faults.Faults.latency window;
    let algorithms =
      [ ("aggressive", Aggressive.schedule inst); ("conservative", Conservative.schedule inst);
        ("combination", Combination.schedule inst) ]
    in
    let rows =
      List.map
        (fun (name, sched) ->
           let clean = (Driver.validate ~name inst sched).Simulate.stall_time in
           match Delayed.run ~record_events:false ~attribution:true ~window ~faults inst sched with
           | Error e -> [ name; string_of_int clean; Printf.sprintf "wedged at t=%d" e.Simulate.at_time;
                          "-"; "-"; "-"; "-"; "-" ]
           | Ok d ->
             [ name; string_of_int clean;
               string_of_int d.Delayed.base.Simulate.stall_time;
               string_of_int d.Delayed.base.Simulate.elapsed_time;
               string_of_int d.Delayed.delayed_hits;
               string_of_int d.Delayed.delayed_wait;
               string_of_int d.Delayed.max_queue_depth;
               string_of_int d.Delayed.report.Faults.deferred_starts ])
        algorithms
    in
    Tablefmt.print
      (Tablefmt.make
         ~title:(Printf.sprintf "delayed hits: %s n=%d k=%d F=%d" wname n k f)
         ~headers:[ "algorithm"; "clean stall"; "stall"; "elapsed"; "hits"; "wait"; "depth";
                    "deferred" ]
         rows);
    let sched = schedule_of alg inst in
    if gantt then (
      match Gantt.render_delayed ~window ~faults inst sched with
      | Ok s -> print_string s
      | Error e -> print_endline ("gantt: " ^ e));
    match trace_out with
    | None -> ()
    | Some path -> (
      match Delayed.run ~record_events:true ~attribution:true ~window ~faults inst sched with
      | Error e -> Printf.printf "trace: invalid schedule at t=%d: %s\n" e.Simulate.at_time e.Simulate.reason
      | Ok d ->
        Sim_trace.write_file ~faults:d.Delayed.report ~delayed:d.Delayed.waits path inst
          d.Delayed.base;
        Printf.printf "wrote %s - open it at https://ui.perfetto.dev or chrome://tracing\n" path)
  in
  Cmd.v
    (Cmd.info "delayed"
       ~doc:"Run the delayed-hit executor under a stochastic fetch-latency plan and print the queueing table.")
    Term.(
      const run $ metrics_arg $ events_arg $ workload_arg $ seed_arg $ n_arg $ blocks_arg $ k_arg
      $ f_arg $ alg_arg $ window_arg $ latency_arg $ fault_seed_arg $ gantt_arg $ trace_out_arg)

(* stream: the online engine with bounded lookahead (lib/core/stream.ml).
   Unlike simulate, nothing here materializes the trace: generated
   workloads come from the endless streaming twins and --file reads the
   trace line by line, so memory stays O(window + cache) at any n. *)
let stream_cmd =
  let policy_conv =
    let parse s =
      if Prefetcher.find s <> None then Ok s
      else
        Error
          (`Msg
             (Printf.sprintf "unknown policy %s (choose from: %s)" s
                (String.concat ", " (Prefetcher.names ()))))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let policy_arg =
    Arg.(
      value & opt policy_conv "aggressive"
      & info [ "p"; "policy" ]
          ~doc:
            (Printf.sprintf "Prefetch policy: %s." (String.concat "|" (Prefetcher.names ()))))
  in
  let window_arg =
    Arg.(
      value & opt int 64
      & info [ "window" ] ~docv:"W"
          ~doc:"Lookahead window: the policy sees at most $(docv) requests past the cursor.")
  in
  let file_arg =
    Arg.(
      value & opt (some string) None
      & info [ "file" ]
          ~doc:
            "Stream the request sequence from a trace file (read incrementally, never loaded \
             whole); k, F and the initial cache come from its header.")
  in
  let source_conv =
    let streaming = [ "uniform"; "zipf"; "scan"; "phase_shift" ] in
    let parse s =
      if List.mem s streaming then Ok s
      else
        Error
          (`Msg
             (Printf.sprintf "unknown streaming workload %s (choose from: %s)" s
                (String.concat ", " streaming)))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let source_arg =
    Arg.(
      value & opt source_conv "zipf"
      & info [ "w"; "workload" ]
          ~doc:"Streaming workload family: uniform|zipf|scan|phase_shift.")
  in
  let run metrics events wname seed n blocks k f window pname file =
    with_metrics metrics @@ fun () ->
    with_events events @@ fun () ->
    let build = Option.get (Prefetcher.find pname) in
    let finish ~label ~k ~fetch_time ~initial_cache src =
      let t0 = Sys.time () in
      let out =
        Stream.run ~initial_cache ~k ~fetch_time ~window src (build ~fetch_time)
      in
      let dt = Sys.time () -. t0 in
      Printf.printf "stream: %s policy=%s k=%d F=%d window=%d\n" label out.Stream.policy k
        fetch_time window;
      Printf.printf "served=%d stall=%d elapsed=%d\n" out.Stream.served out.Stream.stall_time
        out.Stream.elapsed_time;
      Printf.printf "fetches=%d (demand=%d) window_refills=%d\n" out.Stream.fetches
        out.Stream.demand_fetches out.Stream.refills;
      Printf.printf "wall=%.3fs (%.0f req/s)\n" dt
        (if dt > 0.0 then float_of_int out.Stream.served /. dt else 0.0)
    in
    match file with
    | Some path ->
      Trace_io.with_reader path (fun r ->
          let hdr = Trace_io.header r in
          if hdr.Trace_io.num_disks <> 1 then
            failwith "ipc stream is single-disk; trace declares disks > 1";
          let initial_cache = Option.value hdr.Trace_io.initial_cache ~default:[] in
          finish ~label:path ~k:hdr.Trace_io.cache_size ~fetch_time:hdr.Trace_io.fetch_time
            ~initial_cache (Stream.of_reader r))
    | None ->
      let src =
        match wname with
        | "uniform" -> Stream.uniform ~seed ~num_blocks:blocks
        | "zipf" -> Stream.zipf ~seed ~alpha:0.9 ~num_blocks:blocks
        | "scan" -> Stream.sequential_scan ~num_blocks:blocks
        | _ ->
          (* the scale tier's sliding-working-set locality pattern *)
          Stream.phase_shift ~seed ~num_blocks:blocks
            ~phase_len:(Stdlib.max 1 (n / 200))
            ~working_set:(Stdlib.max 4 (blocks / 8))
      in
      finish
        ~label:(Printf.sprintf "%s n=%d blocks=%d" wname n blocks)
        ~k ~fetch_time:f ~initial_cache:[] (Stream.take n src)
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Run a prefetch policy online over a streaming request source with a bounded lookahead \
          window, in constant memory.")
    Term.(
      const run $ metrics_arg $ events_arg $ source_arg $ seed_arg $ n_arg $ blocks_arg $ k_arg
      $ f_arg $ window_arg $ policy_arg $ file_arg)

(* fuzz: the property-based conformance harness (lib/check) *)
let classes_conv =
  let parse s =
    let parts =
      String.split_on_char ',' s |> List.map String.trim |> List.filter (fun x -> x <> "")
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: tl -> (
        match Ck_oracle.class_of_string p with
        | Some c -> go (c :: acc) tl
        | None ->
          Error
            (`Msg
               (Printf.sprintf
                  "unknown oracle class %s (choose from: validity, accounting, theorem, \
                   differential, delayed, stream)"
                  p)))
    in
    go [] parts
  in
  let print fmt cs =
    Format.pp_print_string fmt (String.concat "," (List.map Ck_oracle.class_name cs))
  in
  Arg.conv (parse, print)

let fuzz_cmd =
  let cases_arg = Arg.(value & opt int 500 & info [ "cases" ] ~doc:"Number of generated instances.") in
  let fuzz_seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed; case $(i,I) is a pure function of (seed, I).")
  in
  let classes_arg =
    Arg.(
      value & opt classes_conv Ck_oracle.all_classes
      & info [ "classes" ] ~docv:"LIST"
          ~doc:"Comma-separated oracle classes to run: validity, accounting, theorem, differential, delayed, stream (default: all).")
  in
  let dump_arg =
    Arg.(
      value & opt string "fuzz-failures"
      & info [ "dump" ] ~docv:"DIR" ~doc:"Directory for shrunk-counterexample artifacts (replayable trace + Gantt/event report).")
  in
  let no_dump_arg = Arg.(value & flag & info [ "no-dump" ] ~doc:"Do not write counterexample artifacts.") in
  let max_failures_arg =
    Arg.(value & opt int 5 & info [ "max-failures" ] ~doc:"Stop after this many oracle failures.")
  in
  let progress_arg = Arg.(value & flag & info [ "progress" ] ~doc:"Print progress to stderr every 100 cases.") in
  let self_test_arg =
    Arg.(
      value & flag
      & info [ "self-test" ]
          ~doc:"Verify the harness catches three deliberately planted scheduler bugs (broken Aggressive eviction, stripped evictions, a decide rule that breaks the event-skipping contract) and shrinks the counterexample, then exit.")
  in
  let ceilings_arg =
    Arg.(
      value & flag
      & info [ "ceilings" ]
          ~doc:"Print the differential-oracle size ceilings (largest instances the exact-optimum oracles accept) and the scale-tier budgets, then exit.")
  in
  let scale_tier_arg =
    Arg.(
      value & flag
      & info [ "scale" ]
          ~doc:"Run the scale tier instead of the exact-oracle corpus: 10^4..10^5-request traces from the scale families, checked for validity, per-scheduler time budget, accounting identities, and fast-vs-reference agreement on a capped prefix.")
  in
  let run metrics seed cases classes dump no_dump max_failures progress self_test ceilings scale =
    let ok =
      with_metrics metrics @@ fun () ->
      if ceilings then begin
        Printf.printf "differential_single_ceiling=%d\n" Ck_oracle.differential_single_ceiling;
        Printf.printf "differential_single_blocks=%d\n" Ck_oracle.differential_single_blocks;
        Printf.printf "differential_parallel_ceiling=%d\n" Ck_oracle.differential_parallel_ceiling;
        Printf.printf "differential_node_budget=%d\n" Ck_oracle.differential_node_budget;
        Printf.printf "scale_min_n=%d\n" Ck_scale.min_n;
        Printf.printf "scale_max_n=%d\n" Ck_scale.max_n;
        Printf.printf "scale_budget_ratio=%.1f\n" Ck_scale.budget_ratio;
        Printf.printf "scale_budget_floor_seconds=%.2f\n" Ck_scale.budget_floor_seconds;
        Printf.printf "scale_spot_check_cap=%d\n" Ck_scale.spot_check_cap;
        Printf.printf "scale_parallel_min_n=%d\n" Ck_scale.parallel_min_n;
        Printf.printf "scale_parallel_max_n=%d\n" Ck_scale.parallel_max_n;
        Printf.printf "scale_parallel_max_disks=%d\n" Ck_scale.parallel_max_disks;
        Printf.printf "scale_parallel_spot_check_cap=%d\n" Ck_scale.parallel_spot_check_cap;
        true
      end
      else if self_test then begin
        match Ck_selftest.run ~seed ~max_cases:cases with
        | Error msg ->
          Printf.printf "self-test FAILED: %s\n" msg;
          false
        | Ok findings ->
          List.iter
            (fun (f : Ck_selftest.finding) ->
              Printf.printf
                "planted bug caught by %s after %d cases; counterexample shrunk to %d requests:\n"
                f.Ck_selftest.oracle_name f.Ck_selftest.cases_tried
                (Instance.length f.Ck_selftest.shrunk);
              Format.printf "  %s@.%a@." f.Ck_selftest.shrunk_msg Instance.pp f.Ck_selftest.shrunk)
            findings;
          let worst =
            List.fold_left
              (fun m (f : Ck_selftest.finding) -> max m (Instance.length f.Ck_selftest.shrunk))
              0 findings
          in
          if worst <= 12 then begin
            Printf.printf "self-test ok (largest shrunk counterexample: %d requests)\n" worst;
            true
          end
          else begin
            Printf.printf "self-test FAILED: shrunk counterexample has %d > 12 requests\n" worst;
            false
          end
      end
      else begin
        let cfg =
          {
            Ck_runner.seed;
            cases;
            classes;
            dump_dir = (if no_dump then None else Some dump);
            max_shrink_evals = Ck_runner.default_config.Ck_runner.max_shrink_evals;
            max_failures;
            progress;
          }
        in
        let summary =
          if scale then
            (* The scale tier swaps both the generator and the battery;
               a typical CI run uses a couple dozen cases (each runs all
               seven schedulers on up to 10^5 requests). *)
            Ck_runner.run ~battery:Ck_scale.all ~generate:Ck_scale.generate cfg
          else Ck_runner.run cfg
        in
        Format.printf "%a@." Ck_runner.pp_summary summary;
        not (Ck_runner.failed summary)
      end
    in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing of the schedulers against exact optima and the paper's theorem bounds.")
    Term.(
      const run $ metrics_arg $ fuzz_seed_arg $ cases_arg $ classes_arg $ dump_arg $ no_dump_arg
      $ max_failures_arg $ progress_arg $ self_test_arg $ ceilings_arg $ scale_tier_arg)

(* opt: the exact branch-and-bound engine on one instance. *)
let opt_cmd =
  let d_arg = Arg.(value & opt int 1 & info [ "d"; "disks" ] ~doc:"Number of disks.") in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print search statistics (nodes expanded/pruned/dominated, incumbent).")
  in
  let budget_arg =
    Arg.(
      value & opt (some int) None
      & info [ "node-budget" ] ~docv:"N" ~doc:"Abort after expanding $(docv) search nodes (default: unlimited).")
  in
  let run metrics wname seed n blocks k f d stats node_budget =
    with_metrics metrics @@ fun () ->
    let seq = (family wname).Workload.generate ~seed ~n ~num_blocks:blocks in
    let inst =
      if d = 1 then Workload.single_instance ~k ~fetch_time:f seq
      else
        Workload.parallel_instance ~k ~fetch_time:f ~num_disks:d
          ~layout:(fun ~num_blocks ~num_disks -> Workload.striped_layout ~num_blocks ~num_disks)
          seq
    in
    Format.printf "%a@." Instance.pp inst;
    match Opt.solve ?node_budget inst with
    | exception Opt.Solver_failure { failure = Opt.Budget_exhausted { budget; expanded }; _ } ->
      Printf.printf "node budget exhausted: %d nodes expanded (budget %d), optimum unproven\n"
        expanded budget;
      exit 1
    | o ->
      Printf.printf "optimal stall: %d (elapsed %d)\n" o.Opt.stall (n + o.Opt.stall);
      if stats then begin
        let s = o.Opt.stats in
        (match s.Opt.incumbent_stall with
         | Some ub ->
           Printf.printf "incumbent (greedy) stall: %d%s\n" ub
             (if s.Opt.improved then ", improved by search" else ", already optimal")
         | None -> Printf.printf "incumbent: none\n");
        Printf.printf "nodes expanded:  %d\n" s.Opt.expanded;
        Printf.printf "nodes pruned:    %d (lower bound vs incumbent)\n" s.Opt.pruned;
        Printf.printf "nodes dominated: %d (cache-mask dominance)\n" s.Opt.dominated;
        Printf.printf "stale pops:      %d\n" s.Opt.deduped
      end;
      match o.Opt.schedule with
      | Some sched when stats ->
        Printf.printf "witness fetches: %d\n" (List.length sched)
      | _ -> ()
  in
  Cmd.v
    (Cmd.info "opt"
       ~doc:"Solve one instance exactly with the pruned branch-and-bound engine.")
    Term.(
      const run $ metrics_arg $ workload_arg $ seed_arg
      $ Arg.(value & opt int 20 & info [ "n" ] ~doc:"Request sequence length.")
      $ Arg.(value & opt int 8 & info [ "b"; "blocks" ] ~doc:"Number of distinct blocks.")
      $ k_arg $ f_arg $ d_arg $ stats_arg $ budget_arg)

(* lp *)
let lp_cmd =
  let d_arg = Arg.(value & opt int 2 & info [ "d"; "disks" ] ~doc:"Number of disks.") in
  let run metrics wname seed n blocks k f d =
    with_metrics metrics @@ fun () ->
    let seq = (family wname).Workload.generate ~seed ~n ~num_blocks:blocks in
    let inst =
      if d = 1 then Workload.single_instance ~k ~fetch_time:f seq
      else
        Workload.parallel_instance ~k ~fetch_time:f ~num_disks:d
          ~layout:(fun ~num_blocks ~num_disks -> Workload.striped_layout ~num_blocks ~num_disks)
          seq
    in
    let built = Sync_lp.build inst in
    Printf.printf "LP size: intervals=%d vars=%d rows=%d\n"
      (Array.length built.Sync_lp.intervals)
      built.Sync_lp.problem.Lp_problem.num_vars
      (Lp_problem.num_rows built.Sync_lp.problem);
    let r = Rounding.solve inst in
    Format.printf "%a@." Instance.pp inst;
    Printf.printf "LP optimum (fractional): %s\n" (Rat.to_string r.Rounding.lp_value);
    Printf.printf "rounded schedule: stall=%d, peak occupancy=%d (k=%d, allowed extra=%d)\n"
      r.Rounding.stats.Simulate.stall_time r.Rounding.stats.Simulate.peak_occupancy k
      r.Rounding.extra_slots_allowed;
    Printf.printf "laminar=%b candidates_tried=%d fallback=%b\n" r.Rounding.laminar
      r.Rounding.candidates_tried r.Rounding.used_fallback;
    List.iter (fun op -> Format.printf "  %a@." Fetch_op.pp op) r.Rounding.schedule
  in
  Cmd.v (Cmd.info "lp" ~doc:"Solve one instance with the synchronized LP and round it.")
    Term.(const run $ metrics_arg $ workload_arg $ seed_arg $ Arg.(value & opt int 16 & info [ "n" ]) $ blocks_arg $ k_arg $ f_arg $ d_arg)

(* scale: the driver hot paths at production trace sizes, as a smoke
   report.  Schedules each scale-tier family at n = 10^5 (and 10^6 with
   --full) through every driver-based scheduler, reports wall time and
   throughput, and with --check replays every schedule through the
   executor so validity and stall accounting are asserted at scale. *)
let scale_cmd =
  let full_arg =
    Arg.(value & flag & info [ "full" ] ~doc:"Run both tiers, n = 100000 and n = 1000000 (default: 100000 only).")
  in
  let check_arg =
    Arg.(value & flag & info [ "check" ] ~doc:"Replay every schedule through the executor and report its stall time (fails on any invalid schedule).")
  in
  let run metrics events seed k f full check =
    with_metrics metrics @@ fun () ->
    with_events events @@ fun () ->
    let sizes = if full then [ 100_000; 1_000_000 ] else [ 100_000 ] in
    let d0 = Bounds.delay_opt_d ~f in
    let algorithms =
      [ ("aggressive", Aggressive.schedule);
        ("conservative", Conservative.schedule);
        ("delay", Delay.schedule ~d:d0);
        ("combination", Combination.schedule);
        ("fixed-horizon", Fixed_horizon.schedule);
        ("online", Online.schedule (Online.aggressive ~lookahead:(4 * f)));
        ("reverse-aggr", Reverse_aggressive.schedule) ]
    in
    let failures = ref 0 in
    Printf.printf "%-12s %9s %-14s %10s %9s %9s%s\n" "family" "n" "algorithm" "time" "Mreq/s"
      "fetches" (if check then "  replay" else "");
    let aggressive_times = Hashtbl.create 8 in
    List.iter
      (fun n ->
         List.iter
           (fun (fam : Workload.family) ->
              let num_blocks = Stdlib.max 64 (n / 64) in
              let seq = fam.Workload.generate ~seed ~n ~num_blocks in
              let inst = Workload.single_instance ~k ~fetch_time:f seq in
              List.iter
                (fun (name, schedule) ->
                   let t0 = Sys.time () in
                   let sched = schedule inst in
                   let dt = Sys.time () -. t0 in
                   if name = "aggressive" then
                     Hashtbl.replace aggressive_times (fam.Workload.name, n) dt;
                   (* Per-(family, n, scheduler) wall clock, the data the
                      report's scheduler section renders. *)
                   if Telemetry.enabled () then
                     Telemetry.set
                       (Telemetry.gauge
                          (Printf.sprintf "scale.seconds.%s.n%d.%s" fam.Workload.name n name))
                       dt;
                   let replay =
                     if not check then ""
                     else
                       match Simulate.run inst sched with
                       | Ok s -> Printf.sprintf "  ok(stall=%d)" s.Simulate.stall_time
                       | Error e ->
                         incr failures;
                         Printf.sprintf "  INVALID at t=%d: %s" e.Simulate.at_time e.Simulate.reason
                   in
                   Printf.printf "%-12s %9d %-14s %8.3f s %9.2f %9d%s\n%!" fam.Workload.name n
                     name dt
                     (float_of_int n /. dt /. 1e6)
                     (List.length sched) replay)
                algorithms)
           Workload.scale_families)
      sizes;
    if full then
      List.iter
        (fun (fam : Workload.family) ->
           match
             ( Hashtbl.find_opt aggressive_times (fam.Workload.name, 100_000),
               Hashtbl.find_opt aggressive_times (fam.Workload.name, 1_000_000) )
           with
           | Some t5, Some t6 when t5 > 0.0 ->
             Printf.printf "scaling %-12s aggressive 1e5 -> 1e6: %.1fx (linear = 10x)\n"
               fam.Workload.name (t6 /. t5)
           | _ -> ())
        Workload.scale_families;
    if !failures > 0 then begin
      Printf.printf "scale: FAILED (%d invalid schedules)\n" !failures;
      exit 1
    end
    else Printf.printf "scale: ok\n"
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:"Smoke-report the driver hot paths on 10^5..10^6-request traces (Zipf, scan, phase-shift).")
    Term.(
      const run $ metrics_arg $ events_arg $ seed_arg
      $ Arg.(value & opt int 64 & info [ "k"; "cache" ] ~doc:"Cache size k.")
      $ Arg.(value & opt int 8 & info [ "f"; "fetch-time" ] ~doc:"Fetch time F.")
      $ full_arg $ check_arg)

(* explain: run one workload with the provenance log on and print the
   decision events, optionally filtered to one instant or one block.
   Driver-based schedulers emit during scheduling; for algorithms that
   bypass the driver (opt) the schedule is replayed through the executor
   with the log enabled, so there is always something to show. *)
let explain_cmd =
  let at_arg =
    Arg.(
      value & opt (some int) None
      & info [ "at" ] ~docv:"T"
          ~doc:"Only events touching simulated instant $(docv) (instants match exactly, \
                stall/skip intervals when they contain $(docv)).")
  in
  let block_arg =
    Arg.(
      value & opt (some int) None
      & info [ "block" ] ~docv:"B" ~doc:"Only events mentioning block $(docv).")
  in
  let limit_arg =
    Arg.(value & opt int 200 & info [ "limit" ] ~docv:"N" ~doc:"Print at most $(docv) events.")
  in
  let run wname seed n blocks k f alg at block limit =
    Event_log.set_enabled true;
    Event_log.clear ();
    let inst = mk_instance wname ~seed ~n ~blocks ~k ~f in
    let schedule = schedule_of alg inst in
    if Event_log.recorded () = 0 then (
      match Simulate.run inst schedule with
      | Ok _ -> ()
      | Error e ->
        Printf.printf "invalid schedule at t=%d: %s\n" e.Simulate.at_time e.Simulate.reason);
    let span = function
      | Event_log.Stall_interval { from_time; until_time; _ }
      | Event_log.Clock_skip { from_time; until_time; _ } -> (from_time, until_time)
      | Event_log.Fetch_issue { time; _ }
      | Event_log.Fetch_complete { time; _ }
      | Event_log.Evict { time; _ }
      | Event_log.Frontier_clamp { time; _ }
      | Event_log.Delayed_hit { time; _ }
      | Event_log.Window_refill { time; _ }
      | Event_log.Note { time; _ } -> (time, time + 1)
    in
    let blocks_of = function
      | Event_log.Fetch_issue { block; evict; _ } ->
        block :: (match evict with Some e -> [ e ] | None -> [])
      | Event_log.Fetch_complete { block; _ }
      | Event_log.Stall_interval { block; _ }
      | Event_log.Frontier_clamp { block; _ }
      | Event_log.Delayed_hit { block; _ } -> [ block ]
      | Event_log.Evict { block; runner_up; _ } ->
        block :: (match runner_up with Some (b, _) -> [ b ] | None -> [])
      | Event_log.Clock_skip _ | Event_log.Window_refill _ | Event_log.Note _ -> []
    in
    let selected =
      List.filter
        (fun ev ->
           (match at with
            | None -> true
            | Some t ->
              let t0, t1 = span ev in
              t0 <= t && t < t1)
           &&
           match block with None -> true | Some b -> List.mem b (blocks_of ev))
        (Event_log.contents ())
    in
    Format.printf "%a@." Instance.pp inst;
    Printf.printf "%d event(s) match (%d recorded)\n" (List.length selected)
      (Event_log.recorded ());
    List.iteri
      (fun i ev -> if i < limit then Format.printf "%a@." Event_log.pp ev)
      selected;
    if List.length selected > limit then
      Printf.printf "... %d more (raise --limit or narrow --at/--block)\n"
        (List.length selected - limit)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Run one workload with the decision-provenance log enabled and print why the \
             scheduler stalled, evicted and fetched (filter with --at / --block).")
    Term.(
      const run $ workload_arg $ seed_arg $ n_arg $ blocks_arg $ k_arg $ f_arg $ alg_arg
      $ at_arg $ block_arg $ limit_arg)

(* report: metrics JSONL (+ optional event JSONL) -> one HTML file. *)
let report_cmd =
  let metrics_in_arg =
    Arg.(
      value & pos 0 string "metrics.jsonl"
      & info [] ~docv:"METRICS" ~doc:"Metrics JSONL dump (written by --metrics).")
  in
  let events_in_arg =
    Arg.(
      value & opt (some string) None
      & info [ "events" ] ~docv:"PATH" ~doc:"Provenance-event JSONL dump (written by --events).")
  in
  let out_arg =
    Arg.(value & opt string "report.html" & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Output file.")
  in
  let title_arg =
    Arg.(value & opt string "ipc telemetry report" & info [ "title" ] ~doc:"Report title.")
  in
  let run metrics_in events_in out title =
    let read path = In_channel.with_open_bin path In_channel.input_all in
    let metrics = read metrics_in in
    let events = Option.map read events_in in
    Report.write_file ~title ~metrics ?events out;
    Printf.printf "wrote %s\n" out
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render a metrics JSONL dump (and optional event log) as a self-contained HTML \
             report: metric tables, histogram sparklines, stall timeline, per-scheduler \
             wall-clock tables.")
    Term.(const run $ metrics_in_arg $ events_in_arg $ out_arg $ title_arg)

(* bench-diff: the regression gate over two bench snapshots. *)
let bench_diff_cmd =
  let old_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD" ~doc:"Baseline snapshot.")
  in
  let new_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW" ~doc:"Candidate snapshot.")
  in
  let threshold_arg =
    Arg.(
      value & opt float Bench_diff.default_config.Bench_diff.threshold
      & info [ "threshold" ] ~docv:"R" ~doc:"Flag benchmarks whose new/old ratio exceeds $(docv).")
  in
  let hard_arg =
    Arg.(
      value & opt float Bench_diff.default_config.Bench_diff.hard
      & info [ "hard" ] ~docv:"R"
          ~doc:"Fail outright on any ratio over $(docv), regardless of --allow.")
  in
  let allow_arg =
    Arg.(
      value & opt int Bench_diff.default_config.Bench_diff.allow
      & info [ "allow" ] ~docv:"N"
          ~doc:"Tolerate up to $(docv) flagged benchmarks (micro-benchmark noise quota).")
  in
  let normalize_arg =
    Arg.(
      value & flag
      & info [ "normalize" ]
          ~doc:"Divide every ratio by the median ratio first, so a baseline from a different \
                machine gates only relative regressions.")
  in
  let run old_path new_path threshold hard allow normalize =
    let config = { Bench_diff.threshold; hard; allow; normalize } in
    match (Bench_diff.parse_file old_path, Bench_diff.parse_file new_path) with
    | Error e, _ | _, Error e ->
      Printf.eprintf "ipc: bench-diff: %s\n" e;
      exit 1
    | Ok old_, Ok new_ ->
      let outcome = Bench_diff.compare_snapshots ~config ~old_ ~new_ () in
      Format.printf "%a@?" (Bench_diff.pp_outcome ~config) outcome;
      if outcome.Bench_diff.failed then exit 1
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:"Compare two bench snapshots (bench/main.ml --json) and fail on per-benchmark \
             slowdowns - the CI bench-regression gate.")
    Term.(
      const run $ old_arg $ new_arg $ threshold_arg $ hard_arg $ allow_arg $ normalize_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let status =
    try
      Cmd.eval ~catch:false
        (Cmd.group ~default
           (Cmd.info "ipc" ~version:"1.0"
              ~doc:"Integrated prefetching and caching in single and parallel disk systems")
           [ simulate_cmd; compare_cmd; sweep_cmd; lower_cmd; delay_cmd; parallel_cmd; lp_cmd;
             experiments_cmd; profile_cmd; faults_cmd; delayed_cmd; stream_cmd; fuzz_cmd;
             opt_cmd; scale_cmd; explain_cmd; report_cmd; bench_diff_cmd ])
    with
    | Sys_error msg | Failure msg ->
      Printf.eprintf "ipc: %s\n" msg;
      1
    | Trace_io.Parse_error { file; line; message } ->
      Printf.eprintf "ipc: %s:%d: %s\n" file line message;
      1
    | Instance.Invalid msg ->
      Printf.eprintf "ipc: invalid instance: %s\n" msg;
      1
    | Driver.Invalid_schedule { algorithm; at_time; reason } ->
      Printf.eprintf "ipc: %s produced an invalid schedule at t=%d: %s\n" algorithm at_time reason;
      1
    | Simulate.Internal_error { component; reason } ->
      Printf.eprintf "ipc: %s: internal error: %s\n" component reason;
      1
    | Faults.Invalid_plan { field; reason } ->
      Printf.eprintf "ipc: invalid fault plan (%s): %s\n" field reason;
      1
    | (Opt.Solver_failure _ | Revised.Solver_failure _) as e ->
      Printf.eprintf "ipc: %s\n" (Printexc.to_string e);
      1
  in
  exit status
