(* Scale fuzz tier.  See ck_scale.mli. *)

open Ck_oracle

let min_n = 10_000
let max_n = 100_000
let budget_ratio = 5.0
let budget_floor_seconds = 0.25
let spot_check_cap = 10_000

(* Parallel sub-tier: every third case is a D-disk trace.  The seed loop
   checks D per-disk frontiers each instant, so the spot check stays
   affordable at a shorter prefix. *)
let parallel_min_n = 10_000
let parallel_max_n = 50_000
let parallel_max_disks = 8
let parallel_spot_check_cap = 5_000

(* --- generation ------------------------------------------------------- *)

let state ~seed ~index = Random.State.make [| 0x5ca1e; seed; index |]

let pick st l = List.nth l (Random.State.int st (List.length l))

let generate_single ~index st : Ck_gen.case =
  (* Sizes weighted towards the cheap end: the tier's cost is dominated
     by its largest cases, and 10^4-range traces already exercise the
     frontier/heap machinery thousands of times. *)
  let n = pick st [ 10_000; 10_000; 20_000; 20_000; 50_000; 100_000 ] in
  let k = pick st [ 16; 64; 256 ] in
  let f = pick st [ 4; 8; 16 ] in
  let fam = pick st Workload.scale_families in
  let num_blocks = Stdlib.max (2 * k) (n / 64) in
  let seq = fam.Workload.generate ~seed:(Random.State.bits st) ~n ~num_blocks in
  let inst = Workload.single_instance ~k ~fetch_time:f seq in
  { Ck_gen.index;
    tier = Ck_gen.Single;
    descr = Printf.sprintf "scale:%s n=%d k=%d F=%d" fam.Workload.name n k f;
    inst }

let generate_parallel ~index st : Ck_gen.case =
  let n = pick st [ 10_000; 10_000; 20_000; 20_000; 50_000 ] in
  let k = pick st [ 16; 64; 256 ] in
  let f = pick st [ 4; 8; 16 ] in
  let d = pick st [ 2; 4; parallel_max_disks ] in
  let fam = pick st Workload.scale_families in
  let num_blocks = Stdlib.max (2 * k) (n / 64) in
  let seq = fam.Workload.generate ~seed:(Random.State.bits st) ~n ~num_blocks in
  let layout_seed = Random.State.bits st in
  let layout_name, layout =
    pick st
      [ ("striped", Workload.striped_layout);
        ("partitioned", Workload.partitioned_layout);
        ( "random",
          fun ~num_blocks ~num_disks ->
            Workload.random_layout ~seed:layout_seed ~num_blocks ~num_disks );
        ( "hot",
          fun ~num_blocks ~num_disks ->
            Workload.hot_disk_layout ~seed:layout_seed ~num_blocks ~num_disks
              ~hot_fraction:0.6 ) ]
  in
  let inst = Workload.parallel_instance ~k ~fetch_time:f ~num_disks:d ~layout seq in
  { Ck_gen.index;
    tier = Ck_gen.Parallel;
    descr =
      Printf.sprintf "scale-par:%s/%s n=%d k=%d F=%d D=%d" fam.Workload.name
        layout_name n k f d;
    inst }

let generate ~seed ~index : Ck_gen.case =
  let st = state ~seed ~index in
  (* Every third case exercises the D-disk schedulers at scale. *)
  if index mod 3 = 2 then generate_parallel ~index st else generate_single ~index st

(* --- oracles ---------------------------------------------------------- *)

(* One tier of cases and what its three oracles run.  The anchor heads
   the scheduler list and sets the time budget. *)
type tier = {
  parallel : bool;  (* checks the D-disk cases; the other tier's cases skip *)
  anchor : Ck_seed.rule;
  others : Instance.t -> Ck_seed.rule list;
  accounted : Instance.t -> Ck_seed.rule list;  (* accounting runs these *)
  cap : int;  (* prefix replayed through the seed loop *)
}

let single_tier =
  { parallel = false;
    anchor = Ck_seed.aggressive;
    others =
      (fun inst ->
        let f = inst.Instance.fetch_time in
        Ck_seed.
          [ conservative;
            delay (Bounds.delay_opt_d ~f);
            combination;
            fixed_horizon;
            online (Online.aggressive ~lookahead:(4 * f));
            reverse_aggressive ]);
    accounted =
      (fun inst ->
        Ck_seed.
          [ aggressive;
            conservative;
            online (Online.aggressive ~lookahead:(4 * inst.Instance.fetch_time)) ]);
    cap = spot_check_cap }

(* The D-disk production schedulers plus the disk-agnostic pair, as in
   test_driver_equiv's corpus split. *)
let parallel_tier =
  { parallel = true;
    anchor = Ck_seed.aggressive_d;
    others = (fun _ -> Ck_seed.[ conservative_d; fixed_horizon; reverse_aggressive ]);
    accounted = (fun _ -> Ck_seed.[ aggressive_d; conservative_d ]);
    cap = parallel_spot_check_cap }

let schedulers_of tier inst = tier.anchor :: tier.others inst

let in_tier tier ~name ~cls check =
  make ~name ~cls (fun inst ->
      if (inst.Instance.num_disks > 1) <> tier.parallel then
        Skip (if tier.parallel then "parallel tier" else "single-disk tier")
      else check inst)

let first_failure f l =
  List.fold_left (fun acc x -> match acc with Pass -> f x | _ -> acc) Pass l

(* Executor validity for every scheduler of the tier, with a relative
   time budget: scheduler time <= budget_ratio x the anchor's time on
   the same instance (machine speed cancels out of the ratio, so the
   bound is stable across runners), under an absolute floor that keeps
   timer noise on small shrunk instances from failing.  A regression
   that reintroduces a per-decision linear scan blows the ratio by an
   order of magnitude at n = 10^5. *)
let validity_and_budget_of tier ~name =
  in_tier tier ~name ~cls:Validity (fun inst ->
      let timed (r : Ck_seed.rule) =
        let t0 = Sys.time () in
        let sched = r.Ck_seed.schedule inst in
        (r.Ck_seed.name, sched, Sys.time () -. t0)
      in
      let ((_, _, anchor_dt) as anchor) = timed tier.anchor in
      let runs = anchor :: List.map timed (tier.others inst) in
      let budget = Stdlib.max budget_floor_seconds (budget_ratio *. anchor_dt) in
      first_failure
        (fun (name, sched, dt) ->
          match Simulate.run inst sched with
          | Error { Simulate.reason; at_time } ->
            failf ~schedule:sched "%s rejected by executor at t=%d: %s" name at_time reason
          | Ok _ when dt > budget ->
            failf ~schedule:sched "%s took %.3fs, budget %.3fs (%.1fx %s's %.3fs)" name dt
              budget budget_ratio tier.anchor.Ck_seed.name anchor_dt
          | Ok _ -> Pass)
        runs)

let accounting_of tier ~name =
  in_tier tier ~name ~cls:Accounting (fun inst ->
      first_failure
        (fun (r : Ck_seed.rule) ->
          match
            Ck_validity.check_identities ~alg_name:r.Ck_seed.name inst (r.Ck_seed.schedule inst)
          with
          | Some failure -> failure
          | None -> Pass)
        (tier.accounted inst))

let truncate (inst : Instance.t) cap =
  if Instance.length inst <= cap then inst
  else if inst.Instance.num_disks = 1 then
    Instance.single_disk ~k:inst.Instance.cache_size
      ~fetch_time:inst.Instance.fetch_time
      ~initial_cache:inst.Instance.initial_cache
      (Array.sub inst.Instance.seq 0 cap)
  else
    Instance.parallel ~k:inst.Instance.cache_size
      ~fetch_time:inst.Instance.fetch_time ~num_disks:inst.Instance.num_disks
      ~disk_of:inst.Instance.disk_of
      ~initial_cache:inst.Instance.initial_cache
      (Array.sub inst.Instance.seq 0 cap)

(* Production against the seed loop ({!Ck_seed}) on a prefix short
   enough for its per-instant scans: byte-identical schedules and every
   frontier/heap answer equal to a fresh scan.  This is the property
   test_driver_equiv pins on its fixed corpus, sampled here across the
   generated scale distribution. *)
let fast_vs_reference_of tier ~name =
  in_tier tier ~name ~cls:Differential (fun inst ->
      let inst = truncate inst tier.cap in
      match Ck_seed.check inst (schedulers_of tier inst) with
      | Fail f ->
        Fail { f with msg = Printf.sprintf "%d-request prefix: %s" (Instance.length inst) f.msg }
      | outcome -> outcome)

let validity_and_budget =
  validity_and_budget_of single_tier ~name:"scale: validity + per-scheduler time budget"

let accounting = accounting_of single_tier ~name:"scale: stall/attribution identities"

let fast_vs_reference =
  fast_vs_reference_of single_tier ~name:"scale: fast = reference on capped prefix"

let parallel_validity_and_budget =
  validity_and_budget_of parallel_tier ~name:"scale: parallel validity + time budget"

let parallel_accounting =
  accounting_of parallel_tier ~name:"scale: parallel stall/attribution identities"

let parallel_fast_vs_reference =
  fast_vs_reference_of parallel_tier ~name:"scale: parallel fast = reference on capped prefix"

let all =
  [ validity_and_budget;
    accounting;
    fast_vs_reference;
    parallel_validity_and_budget;
    parallel_accounting;
    parallel_fast_vs_reference ]
