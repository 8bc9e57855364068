(* Streaming-run oracles.

   Two properties over single-disk instances:

   - {e full-window equivalence}: with the lookahead window covering the
     whole trace, the "aggressive" and "delay" policies - the very
     decide rules the batch schedulers run, on the windowed index - must
     produce schedules byte-identical to the batch runs, with the same
     stall time and with the engine's demand-fetch safety net never
     firing.  This pins the windowed index to the full-trace one: window
     truncation is the only thing a streaming run changes.

   - {e bounded-window replay}: for every registered policy and a spread
     of window sizes, the recorded schedule must be accepted by
     [Simulate.run] with exactly the stall and elapsed time the engine
     reported.  The engine is not a second accounting authority - every
     schedule it emits replays exactly under the ground-truth
     executor. *)

open Ck_oracle

let single_disk_only (inst : Instance.t) k =
  if inst.Instance.num_disks <> 1 then Skip "single-disk oracle" else k ()

let stream_run ~window pol (inst : Instance.t) =
  Stream.run ~record_schedule:true ~initial_cache:inst.Instance.initial_cache
    ~k:inst.Instance.cache_size ~fetch_time:inst.Instance.fetch_time ~window
    (Stream.of_array inst.Instance.seq)
    pol

(* The policies that run a batch scheduler's rule, next to that
   scheduler.  Policies are made by thunks: hook state is per-run. *)
let ported (inst : Instance.t) =
  let d0 = Bounds.delay_opt_d ~f:inst.Instance.fetch_time in
  let ds = List.sort_uniq compare [ 0; 1; d0 ] in
  ("Aggressive", (fun () -> Prefetcher.aggressive ()), fun i -> Aggressive.schedule i)
  :: List.map
       (fun d ->
         ( Printf.sprintf "Delay(%d)" d,
           (fun () -> Prefetcher.delay ~d ()),
           fun i -> Delay.schedule ~d i ))
       ds

let first_divergence (a : Fetch_op.schedule) (b : Fetch_op.schedule) =
  let rec go i = function
    | [], [] -> Printf.sprintf "schedules equal?! (length %d)" i
    | [], op :: _ -> Format.asprintf "op %d: batch ends, stream adds %a" i Fetch_op.pp op
    | op :: _, [] -> Format.asprintf "op %d: stream ends, batch adds %a" i Fetch_op.pp op
    | x :: xs, y :: ys ->
      if x = y then go (i + 1) (xs, ys)
      else Format.asprintf "op %d: batch %a vs stream %a" i Fetch_op.pp x Fetch_op.pp y
  in
  go 0 (a, b)

let full_window =
  make ~name:"stream: full-window schedules byte-identical to batch" ~cls:Stream
    (fun inst ->
      single_disk_only inst (fun () ->
          let n = Instance.length inst in
          let window = Stdlib.max 1 n in
          let rec go = function
            | [] -> Pass
            | (name, build, batch_of) :: rest ->
              let batch = batch_of inst in
              let out = stream_run ~window (build ()) inst in
              let stream_sched =
                match out.Stream.schedule with Some s -> s | None -> []
              in
              if stream_sched <> batch then
                failf ~schedule:batch "%s at w=n: %s" name
                  (first_divergence batch stream_sched)
              else if out.Stream.demand_fetches <> 0 then
                failf ~schedule:stream_sched
                  "%s at w=n: engine demand path fired %d times (port must cover all misses)"
                  name out.Stream.demand_fetches
              else begin
                let stall = Simulate.stall_time_exn ~name inst batch in
                if out.Stream.stall_time <> stall then
                  failf ~schedule:batch "%s at w=n: stream stall %d, executor says %d" name
                    out.Stream.stall_time stall
                else go rest
              end
          in
          go (ported inst)))

(* Window spread for the replay oracle: the myopic extreme, around one
   fetch of lookahead, and half the trace. *)
let windows (inst : Instance.t) =
  let n = Instance.length inst in
  List.sort_uniq compare
    (List.filter
       (fun w -> w >= 1)
       [ 1; inst.Instance.fetch_time; (2 * inst.Instance.fetch_time) + 1; Stdlib.max 1 (n / 2) ])

let replay =
  make ~name:"stream: bounded-window schedules replay exactly under Simulate" ~cls:Stream
    (fun inst ->
      single_disk_only inst (fun () ->
          let f = inst.Instance.fetch_time in
          let rec per_policy = function
            | [] -> Pass
            | pname :: rest ->
              let build =
                match Prefetcher.find pname with
                | Some b -> b
                | None -> assert false (* names () only lists registered policies *)
              in
              let rec per_window = function
                | [] -> per_policy rest
                | w :: ws -> (
                  let out = stream_run ~window:w (build ~fetch_time:f) inst in
                  let sched = match out.Stream.schedule with Some s -> s | None -> [] in
                  match Simulate.run inst sched with
                  | Error { Simulate.reason; at_time } ->
                    failf ~schedule:sched "%s at w=%d: executor rejected at t=%d: %s" pname w
                      at_time reason
                  | Ok stats ->
                    if stats.Simulate.stall_time <> out.Stream.stall_time then
                      failf ~schedule:sched "%s at w=%d: stream stall %d, executor says %d"
                        pname w out.Stream.stall_time stats.Simulate.stall_time
                    else if stats.Simulate.elapsed_time <> out.Stream.elapsed_time then
                      failf ~schedule:sched "%s at w=%d: stream elapsed %d, executor says %d"
                        pname w out.Stream.elapsed_time stats.Simulate.elapsed_time
                    else per_window ws)
              in
              per_window (windows inst)
          in
          per_policy (Prefetcher.names ())))

let all = [ full_window; replay ]
