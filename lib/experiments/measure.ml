(* Measurement harness: run algorithms against exact optima and aggregate
   elapsed-time / stall-time ratios across workloads and parameters. *)

type algorithm = {
  name : string;
  schedule : Instance.t -> Fetch_op.schedule;
}

let single_disk_algorithms : algorithm list =
  [ { name = "aggressive"; schedule = Aggressive.schedule };
    { name = "conservative"; schedule = Conservative.schedule };
    { name = "combination"; schedule = Combination.schedule } ]

let all_single_disk_algorithms : algorithm list =
  single_disk_algorithms @ [ { name = "fixed-horizon"; schedule = Fixed_horizon.schedule } ]

let delay_algorithm d = { name = Printf.sprintf "delay(%d)" d; schedule = Delay.schedule ~d }

(* One simulation serves every derived measure: callers that need both
   stall and elapsed time (or the full stats) must not pay for - or risk
   diverging between - two executor runs of the same (instance, schedule)
   pair. *)
let run_stats (inst : Instance.t) (alg : algorithm) : Simulate.stats =
  Driver.validate ~name:alg.name inst (alg.schedule inst)

let elapsed (inst : Instance.t) (alg : algorithm) : int = (run_stats inst alg).Simulate.elapsed_time
let stall (inst : Instance.t) (alg : algorithm) : int = (run_stats inst alg).Simulate.stall_time

(* Like [run_stats], but turn the two typed internal-failure channels
   (a rejected schedule, a solver/executor invariant violation) into a
   result, so sweeps over many instances can report one bad cell
   instead of dying.  Each failure is also recorded as a structured
   note in the provenance log (when enabled), so an event dump or `ipc
   report` still carries it even if the table cell scrolls by. *)
let run_protected (inst : Instance.t) (alg : algorithm) : (Simulate.stats, string) result =
  let fail msg =
    Event_log.note ~component:"measure" "%s (n=%d)" msg (Instance.length inst);
    Error msg
  in
  match run_stats inst alg with
  | s -> Ok s
  | exception Simulate.Invalid_schedule { algorithm; at_time; reason } ->
    fail (Printf.sprintf "%s produced an invalid schedule at t=%d: %s" algorithm at_time reason)
  | exception Simulate.Internal_error { component; reason } ->
    fail (Printf.sprintf "%s: internal error: %s" component reason)

type ratio_stats = {
  max_ratio : float;
  mean_ratio : float;
  samples : int;
  summary : Stats.summary;  (* full distribution, for detailed reports *)
}

(* Elapsed-time ratio of [alg] against the exact single-disk optimum over
   [instances]. *)
let elapsed_ratios (alg : algorithm) (instances : Instance.t list) : ratio_stats =
  let ratios =
    List.map
      (fun inst ->
         let a = float_of_int (elapsed inst alg) in
         let o = float_of_int (Instance.length inst + (Opt.solve_single inst).Opt.stall) in
         a /. o)
      instances
  in
  let s = Stats.summarize ratios in
  { max_ratio = (if s.Stats.count = 0 then 0.0 else s.Stats.maximum);
    mean_ratio = s.Stats.mean;
    samples = s.Stats.count;
    summary = s }

(* Standard instance pool: all workload families at several seeds. *)
let instance_pool ?(seeds = [ 1; 2; 3 ]) ?(n = 120) ?(num_blocks = 12) ~k ~fetch_time () :
  Instance.t list =
  List.concat_map
    (fun (fam : Workload.family) ->
       List.map
         (fun seed ->
            Workload.single_instance ~k ~fetch_time (fam.Workload.generate ~seed ~n ~num_blocks))
         seeds)
    Workload.families
