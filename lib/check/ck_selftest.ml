(* Planted-bug self-test.  See ck_selftest.mli. *)

(* Aggressive with its guard dropped and Belady inverted: whenever the
   disk is idle and some block is missing, fetch it and evict the cached
   block whose next reference is SOONEST among those not needed at the
   cursor itself (evicting the block being served this very instant
   would livelock rather than thrash - the planted bug must still
   terminate).  On loop-like sequences this throws away exactly the
   blocks about to be requested and misses on nearly every request. *)
let broken_decide d =
  if not (Driver.disk_busy d 0) then
    let pos = Driver.next_missing d in
    if pos >= 0 then begin
      let inst = Driver.instance d in
      let block = inst.Instance.seq.(pos) in
      if Driver.has_free_slot d then Driver.start_fetch d ~block ~evict:None
      else begin
        let cur = Driver.cursor d in
        let victim =
          List.fold_left
            (fun acc c ->
              let p = Driver.next_ref d ~block:c ~from:cur in
              if p = cur then acc (* the block the processor needs right now *)
              else
                match acc with
                | Some (_, best) when best <= p -> acc
                | _ -> Some (c, p))
            None (Driver.cache_list d)
        in
        match victim with
        | None -> ()
        | Some (v, _) -> Driver.start_fetch d ~block ~evict:(Some v)
      end
    end

let broken_aggressive_schedule inst =
  Driver.schedule (Driver.run inst ~decide:broken_decide)

(* Aggressive that acts only on every other decide call, unless the
   cursor's block is missing (so it cannot deadlock).  The call counter
   is per-call state, which breaks the decide contract: a run that
   elides the calls the contract proves are no-ops sees a different
   parity from a run that makes them all.  Every schedule it emits is
   valid and near-Aggressive, so only the seed-loop differential can
   tell production's run from the per-instant one. *)
let every_other_call_decide () =
  let calls = ref 0 in
  fun d ->
    incr calls;
    let cur = Driver.request_at d (Driver.cursor d) in
    if !calls land 1 = 0 || not (Driver.in_cache d cur || Driver.block_in_flight d cur) then
      Aggressive.decide d

let every_other_call_schedule inst =
  Driver.schedule (Driver.run inst ~decide:(every_other_call_decide ()))

let no_evict_schedule inst =
  List.map
    (fun (op : Fetch_op.t) -> { op with Fetch_op.evict = None })
    (Aggressive.schedule inst)

type finding = {
  oracle_name : string;
  cases_tried : int;
  original : Ck_gen.case;
  first_msg : string;
  shrunk : Instance.t;
  shrunk_msg : string;
}

let find_planted ~seed ~max_cases ~(oracle : Ck_oracle.t) =
  let result = ref None in
  (try
     for i = 0 to max_cases - 1 do
       let case = Ck_gen.generate_single_disk ~seed ~index:i in
       match oracle.Ck_oracle.check case.Ck_gen.inst with
       | Ck_oracle.Pass | Ck_oracle.Skip _ -> ()
       | Ck_oracle.Fail { msg; _ } as first ->
         let shrunk, shrunk_outcome, _evals =
           Ck_shrink.minimize ~max_evals:800 ~check:oracle.Ck_oracle.check
             case.Ck_gen.inst first
         in
         let shrunk_msg =
           match shrunk_outcome with
           | Ck_oracle.Fail { msg; _ } -> msg
           | _ -> msg
         in
         result :=
           Some
             {
               oracle_name = oracle.Ck_oracle.name;
               cases_tried = i + 1;
               original = case;
               first_msg = msg;
               shrunk;
               shrunk_msg;
             };
         raise Exit
     done
   with Exit -> ());
  match !result with
  | Some f -> Ok f
  | None ->
    Error
      (Printf.sprintf "planted bug not detected by %s within %d cases"
         oracle.Ck_oracle.name max_cases)

let run ~seed ~max_cases =
  let theorem_oracle =
    Ck_theorems.theorem1
      ~impl:("broken_aggressive", broken_aggressive_schedule)
      ()
  in
  let validity_oracle =
    Ck_validity.validity_with ~name:"validity: no-evict aggressive"
      ~algorithms_for:(fun _ -> [ ("no_evict_aggressive", no_evict_schedule) ])
  in
  let contract_oracle =
    Ck_oracle.make ~name:"differential: every-other-call aggressive vs seed loop"
      ~cls:Ck_oracle.Differential (fun inst ->
        Ck_seed.check inst
          [ { Ck_seed.name = "every_other_call_aggressive";
              schedule = every_other_call_schedule;
              seed = (fun _ -> every_other_call_decide ());
              reach = (fun _ -> 0);
              plans_min = false } ])
  in
  let rec all acc = function
    | [] -> Ok (List.rev acc)
    | oracle :: rest -> (
      match find_planted ~seed ~max_cases ~oracle with
      | Error e -> Error e
      | Ok f -> all (f :: acc) rest)
  in
  all [] [ theorem_oracle; validity_oracle; contract_oracle ]
