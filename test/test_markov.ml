(* The markov prefetcher against a reference copy of its first
   implementation, which rescanned the current block's whole successor
   table on every request.  The registered policy keeps each block's
   best successor up to date as counts grow; both must pick the same
   successor (highest count, ties to the smallest id) at every request,
   so their outcomes, schedules included, must be equal. *)

module S = Stream

(* The speculative-fetch guard both policies share (a copy of
   [Prefetcher]'s, which is not exported). *)
let try_speculative d ~want =
  if
    (not (Driver.disk_busy d 0))
    && want >= 0
    && want <= Driver.max_block_seen d
    && (not (Driver.in_cache d want))
    && Driver.cursor d < Driver.lookahead_end d
    &&
    let cur = Driver.request_at d (Driver.cursor d) in
    Driver.in_cache d cur || Driver.block_in_flight d cur
  then begin
    if Driver.has_free_slot d then Driver.start_fetch d ~block:want ~evict:None
    else
      let c = Driver.cursor d in
      let e = Driver.furthest_cached d ~from:c in
      if e >= 0 && Driver.next_ref d ~block:e ~from:c >= Driver.lookahead_end d then
        Driver.start_fetch d ~block:want ~evict:(Some e)
  end

let reference_markov () : S.policy =
  let succ : (int, (int, int ref) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let prev = ref (-1) in
  let want = ref (-1) in
  let best_successor b =
    match Hashtbl.find_opt succ b with
    | None -> -1
    | Some tbl ->
      let best = ref (-1) and best_n = ref 0 in
      Hashtbl.iter
        (fun s n ->
           if !n > !best_n || (!n = !best_n && (!best < 0 || s < !best)) then begin
             best_n := !n;
             best := s
           end)
        tbl;
      !best
  in
  let on_find _t ~block ~hit:_ =
    if !prev >= 0 then begin
      let tbl =
        match Hashtbl.find_opt succ !prev with
        | Some tbl -> tbl
        | None ->
          let tbl = Hashtbl.create 4 in
          Hashtbl.add succ !prev tbl;
          tbl
      in
      (match Hashtbl.find_opt tbl block with
       | Some n -> incr n
       | None -> Hashtbl.add tbl block (ref 1))
    end;
    prev := block;
    want := best_successor block
  in
  let prefetch d = try_speculative d ~want:!want in
  { (S.passive_policy "markov") with prefetch; on_find }

let same_outcome ~label ~initial_cache ~k ~fetch_time ~window seq =
  let run pol =
    S.run ~record_schedule:true ~initial_cache ~k ~fetch_time ~window (S.of_array seq) pol
  in
  let expected = run (reference_markov ()) and got = run (Prefetcher.markov ()) in
  if got <> expected then
    Alcotest.failf "%s at window %d: stall %d vs reference %d, fetches %d vs %d" label window
      got.S.stall_time expected.S.stall_time got.S.fetches expected.S.fetches

let test_corpus () =
  for index = 0 to 299 do
    let case = Ck_gen.generate_single_disk ~seed:42 ~index in
    let inst = case.Ck_gen.inst in
    let f = inst.Instance.fetch_time in
    let n = Stdlib.max 1 (Instance.length inst) in
    List.iter
      (fun window ->
         same_outcome
           ~label:(Printf.sprintf "case %d (%s)" index case.Ck_gen.descr)
           ~initial_cache:inst.Instance.initial_cache ~k:inst.Instance.cache_size ~fetch_time:f
           ~window inst.Instance.seq)
      [ 1; f; 64; n ]
  done

(* Zipf over many blocks: most successor counts stay at 1 or 2, so ties
   for the best successor are the common case. *)
let test_zipf_ties () =
  let seq = Workload.zipf ~seed:3 ~alpha:0.9 ~n:20_000 ~num_blocks:4_096 in
  List.iter
    (fun window ->
       same_outcome ~label:"zipf(0.9) n=20000 blocks=4096" ~initial_cache:[] ~k:64 ~fetch_time:8
         ~window seq)
    [ 1; 8; 64 ]

let () =
  Alcotest.run "markov"
    [ ("oracle",
       [ Alcotest.test_case "ck_gen corpus at windows 1, F, 64, n" `Quick test_corpus;
         Alcotest.test_case "zipf with successor ties" `Quick test_zipf_ties ]) ]
