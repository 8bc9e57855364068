(* E16: bound drift under delayed hits and stochastic fetch latency.

   Theorems 1 and 3 (and Corollary 2) bound the elapsed-time ratio of
   the reproduced schedulers for a *deterministic* fetch time F.  The
   delayed-hit executor changes both sides of that contract: fetch
   durations are drawn from a latency distribution, and requests may
   park on in-flight fetches instead of stalling.  This battery row
   measures how far each scheduler drifts from its proved bound as the
   latency variance and the wait-queue window grow: the measured mean
   elapsed ratio (against the clean deterministic optimum, the paper's
   yardstick) side by side with the deterministic bound, plus the
   queueing telemetry (delayed hits, wait units, peak queue depth).

   Under the degenerate [const F] plan with window 0 the executor is
   byte-identical to the classic one (enforced by the [delayed] fuzz
   oracle), so that row doubles as the experiment's control: its drift
   is exactly the classic ratio-vs-bound slack. *)

type dist = {
  label : string;
  latency : int -> Faults.latency;  (* fetch time -> distribution *)
}

let distributions =
  [ { label = "const F"; latency = (fun f -> Faults.Const f) };
    { label = "uniform [F/2,2F]";
      latency = (fun f -> Faults.Uniform { lo = Stdlib.max 1 (f / 2); hi = 2 * f }) };
    { label = "pareto xm=2 a=1.3";
      latency = (fun f -> Faults.Pareto { xm = 2; alpha = 1.3; cap = 8 * f }) } ]

let windows = [ 0; 4; 16 ]

type alg = {
  name : string;
  schedule : Instance.t -> Fetch_op.schedule;
  bound : k:int -> f:int -> float;  (* the deterministic elapsed-ratio bound *)
}

let algorithms =
  [ { name = "aggressive"; schedule = Aggressive.schedule;
      bound = (fun ~k ~f -> Bounds.aggressive_upper ~k ~f) };
    { name = "conservative"; schedule = Conservative.schedule;
      bound = (fun ~k:_ ~f:_ -> Bounds.conservative_upper) };
    { name = "combination"; schedule = Combination.schedule;
      bound = (fun ~k ~f -> Bounds.combination_bound ~k ~f) } ]

(* Same pool shape as E15: small single-disk zipf instances. *)
let pool ?(count = 8) () =
  List.init count (fun i ->
      let family =
        List.find (fun (f : Workload.family) -> f.Workload.name = "zipf") Workload.families
      in
      Workload.single_instance ~k:5 ~fetch_time:4
        (family.Workload.generate ~seed:(41 + i) ~n:24 ~num_blocks:10))

let e16 ?count () : Tablefmt.t =
  let insts = pool ?count () in
  let rows =
    List.concat_map
      (fun dist ->
         List.concat_map
           (fun window ->
              List.map
                (fun alg ->
                   let ratio_sum = ref 0.0 and measured = ref 0 and wedged = ref 0 in
                   let hits = ref 0 and wait = ref 0 and depth = ref 0 in
                   let bound = ref 0.0 in
                   List.iteri
                     (fun i inst ->
                        let k = inst.Instance.cache_size and f = inst.Instance.fetch_time in
                        let n = Instance.length inst in
                        bound := alg.bound ~k ~f;
                        let sched = alg.schedule inst in
                        let opt = (Opt.solve_single inst).Opt.stall in
                        let faults =
                          Faults.make ~seed:(2000 + i) ~latency:(dist.latency f) ()
                        in
                        match Delayed.run ~window ~faults inst sched with
                        | Error _ -> incr wedged
                        | Ok d ->
                          let elapsed = d.Delayed.base.Simulate.elapsed_time in
                          ratio_sum :=
                            !ratio_sum +. (float_of_int elapsed /. float_of_int (n + opt));
                          incr measured;
                          hits := !hits + d.Delayed.delayed_hits;
                          wait := !wait + d.Delayed.delayed_wait;
                          depth := Stdlib.max !depth d.Delayed.max_queue_depth)
                     insts;
                   let ratio =
                     if !measured = 0 then nan else !ratio_sum /. float_of_int !measured
                   in
                   [ dist.label; string_of_int window; alg.name;
                     (if !measured = 0 then "-" else Printf.sprintf "%.3f" ratio);
                     Printf.sprintf "%.3f" !bound;
                     (if !measured = 0 then "-"
                      else Printf.sprintf "%+.3f" (ratio -. !bound));
                     (if !wedged > 0 then Printf.sprintf "%d (%d wedged)" !hits !wedged
                      else string_of_int !hits);
                     string_of_int !wait; string_of_int !depth ])
                algorithms)
           windows)
      distributions
  in
  Tablefmt.make
    ~title:
      (Printf.sprintf "E16: bound drift under delayed hits (%d instances)"
         (List.length insts))
    ~headers:[ "latency"; "window"; "algorithm"; "ratio"; "bound"; "drift"; "hits"; "wait"; "depth" ]
    ~notes:
      [ "ratio = mean elapsed / (n + clean OPT stall) under the delayed-hit executor;";
        "bound = the deterministic Theorem 1 / 2-approx / Corollary 2 elapsed-ratio bound;";
        "drift = ratio - bound (positive: the stochastic latency has outrun the proved bound);";
        "const F + window 0 is the degenerate control row (byte-identical to the classic \
         executor)." ]
    rows

let all () = [ e16 () ]
