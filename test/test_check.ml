(* Tests for the conformance harness itself (lib/check): generator
   determinism and validity, shrinker soundness, a healthy battery run,
   and the planted-bug self-test with its shrunk-size acceptance bound. *)

(* ------------------------------------------------------------------ *)
(* Generation. *)

(* Case i is a pure function of (seed, i): regenerating gives the same
   instance, and every generated instance passes Instance's own
   validation (construction raises on malformed parameters). *)
let test_generator_deterministic_and_valid () =
  List.iter
    (fun seed ->
      for index = 0 to 120 do
        let c1 = Ck_gen.generate ~seed ~index in
        let c2 = Ck_gen.generate ~seed ~index in
        Alcotest.(check string)
          (Printf.sprintf "descr stable (seed %d case %d)" seed index)
          c1.Ck_gen.descr c2.Ck_gen.descr;
        if not (c1.Ck_gen.inst = c2.Ck_gen.inst) then
          Alcotest.failf "seed %d case %d not reproducible" seed index;
        let inst = c1.Ck_gen.inst in
        (* basic structural sanity of what the generator claims to emit *)
        Alcotest.(check bool) "non-empty" true (Instance.length inst > 0);
        Alcotest.(check bool) "k positive" true (inst.Instance.cache_size >= 1);
        Alcotest.(check bool) "F positive" true (inst.Instance.fetch_time >= 1);
        Alcotest.(check bool) "init fits cache" true
          (List.length inst.Instance.initial_cache <= inst.Instance.cache_size)
      done)
    [ 0; 42; 1337 ]

let test_generator_tiers_cycle () =
  let tiers = List.init 9 (fun index -> (Ck_gen.generate ~seed:7 ~index).Ck_gen.tier) in
  Alcotest.(check bool) "tiers cycle tiny/single/parallel" true
    (tiers
     = [ Ck_gen.Tiny; Ck_gen.Single; Ck_gen.Parallel; Ck_gen.Tiny; Ck_gen.Single;
         Ck_gen.Parallel; Ck_gen.Tiny; Ck_gen.Single; Ck_gen.Parallel ])

let test_generator_single_disk_only () =
  for index = 0 to 60 do
    let c = Ck_gen.generate_single_disk ~seed:42 ~index in
    Alcotest.(check int)
      (Printf.sprintf "case %d is single-disk" index)
      1 c.Ck_gen.inst.Instance.num_disks
  done

(* ------------------------------------------------------------------ *)
(* Shrinking. *)

(* Every shrink candidate is a valid instance no larger than its parent. *)
let test_shrink_candidates_valid () =
  for index = 0 to 30 do
    let inst = (Ck_gen.generate ~seed:11 ~index).Ck_gen.inst in
    Seq.iter
      (fun (c : Instance.t) ->
        Alcotest.(check bool) "candidate no longer" true
          (Instance.length c <= Instance.length inst);
        Alcotest.(check bool) "candidate k bounded" true (c.Instance.cache_size <= inst.Instance.cache_size);
        (* disk map consistent with its own num_disks *)
        Array.iter
          (fun d ->
            Alcotest.(check bool) "disk in range" true (d >= 0 && d < c.Instance.num_disks))
          c.Instance.disk_of)
      (Ck_shrink.candidates inst)
  done

(* minimize only ever returns an instance on which the oracle still
   fails, and never a larger one than it started with. *)
let test_minimize_sound () =
  (* oracle: fails iff the sequence references block 0 at least twice *)
  let check (inst : Instance.t) =
    let hits = Array.fold_left (fun acc b -> if b = 0 then acc + 1 else acc) 0 inst.Instance.seq in
    if hits >= 2 then Ck_oracle.failf "block 0 referenced %d times" hits else Ck_oracle.Pass
  in
  let tried = ref 0 in
  for index = 0 to 60 do
    let inst = (Ck_gen.generate ~seed:5 ~index).Ck_gen.inst in
    match check inst with
    | Ck_oracle.Pass | Ck_oracle.Skip _ -> ()
    | Ck_oracle.Fail _ as first ->
      incr tried;
      let shrunk, outcome, evals = Ck_shrink.minimize ~max_evals:300 ~check inst first in
      Alcotest.(check bool) "shrunk still fails" true (Ck_oracle.is_fail outcome);
      Alcotest.(check bool) "no larger" true (Instance.length shrunk <= Instance.length inst);
      Alcotest.(check bool) "budget respected" true (evals <= 300);
      (* this oracle's minimal failing instances have exactly 2 requests *)
      Alcotest.(check bool)
        (Printf.sprintf "near-minimal (%d requests)" (Instance.length shrunk))
        true
        (Instance.length shrunk <= 3)
  done;
  Alcotest.(check bool) "property exercised" true (!tried > 5)

(* ------------------------------------------------------------------ *)
(* The battery on healthy implementations. *)

let test_battery_healthy () =
  let cfg =
    { Ck_runner.default_config with Ck_runner.seed = 42; cases = 60; dump_dir = None }
  in
  let summary = Ck_runner.run cfg in
  Alcotest.(check int) "cases run" 60 summary.Ck_runner.cases_run;
  Alcotest.(check bool) "many checks" true (summary.Ck_runner.checks >= 60 * 10);
  if Ck_runner.failed summary then
    Alcotest.failf "healthy battery failed:@\n%a" Ck_runner.pp_summary summary;
  (* every oracle class must actually have fired (not all skipped) *)
  List.iter
    (fun (oracle, counts) ->
      if counts.Ck_runner.pass = 0 then
        Alcotest.failf "oracle %s never passed in 60 cases" oracle.Ck_oracle.name)
    summary.Ck_runner.per_oracle

(* ------------------------------------------------------------------ *)
(* Planted bugs. *)

let test_selftest_catches_planted_bugs () =
  match Ck_selftest.run ~seed:42 ~max_cases:500 with
  | Error e -> Alcotest.fail e
  | Ok findings ->
    Alcotest.(check int) "three planted bugs" 3 (List.length findings);
    List.iter
      (fun (f : Ck_selftest.finding) ->
        let n = Instance.length f.Ck_selftest.shrunk in
        Alcotest.(check bool)
          (Printf.sprintf "%s: shrunk to %d <= 12 requests" f.Ck_selftest.oracle_name n)
          true (n <= 12))
      findings

(* The broken scheduler really is broken (and the harness is not just
   rubber-stamping): on the instance families it targets it must stall
   more than real Aggressive somewhere. *)
let test_planted_bug_is_worse () =
  let worse = ref false in
  (try
     for index = 0 to 200 do
       let inst = (Ck_gen.generate_single_disk ~seed:1 ~index).Ck_gen.inst in
       let stall sched =
         match Simulate.run inst sched with Ok s -> Some s.Simulate.stall_time | Error _ -> None
       in
       match (stall (Ck_selftest.broken_aggressive_schedule inst), stall (Aggressive.schedule inst)) with
       | Some b, Some a when b > a ->
         worse := true;
         raise Exit
       | _ -> ()
     done
   with Exit -> ());
  Alcotest.(check bool) "broken aggressive stalls more somewhere" true !worse

let () =
  Alcotest.run "check"
    [ ( "generator",
        [ Alcotest.test_case "deterministic and valid" `Quick test_generator_deterministic_and_valid;
          Alcotest.test_case "tiers cycle" `Quick test_generator_tiers_cycle;
          Alcotest.test_case "single-disk variant" `Quick test_generator_single_disk_only ] );
      ( "shrinker",
        [ Alcotest.test_case "candidates valid" `Quick test_shrink_candidates_valid;
          Alcotest.test_case "minimize sound" `Quick test_minimize_sound ] );
      ( "battery",
        [ Alcotest.test_case "healthy run has no failures" `Slow test_battery_healthy ] );
      ( "self-test",
        [ Alcotest.test_case "planted bugs caught and shrunk" `Slow test_selftest_catches_planted_bugs;
          Alcotest.test_case "planted bug is genuinely worse" `Quick test_planted_bug_is_worse ] ) ]
