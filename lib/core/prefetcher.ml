(* Prefetch policies for streaming runs, and their registry.

   Two kinds live here:

   - The paper's rules: [aggressive] and [delay ~d] are {!Aggressive}'s
     and {!Delay}'s own decide callbacks, run against the windowed
     index.  At [window = n] their schedules are byte-identical to the
     batch runs — lib/check pins this.

   - History-based competitors with no batch counterpart: [obl]
     (one-block lookahead) and [markov] (first-order successor
     prediction, a Mithril-style frequency table).  These only
     speculate; the engine's demand path covers their misses.  Both
     guard speculative fetches behind a pollution rule — fetch into a
     free slot, or evict only a block with no reference left in the
     window — so a bad prediction never displaces a block the window
     proves useful.

   The registry maps names to builders (libCacheSim-style), so drivers
   like [ipc stream] and the fuzzer select policies by name.  Builders
   take [fetch_time] because Delay's default distance d0 depends on it
   (Corollary 1); each [build] call returns a fresh policy — hook state
   is per-run. *)

let aggressive () : Stream.policy =
  { (Stream.passive_policy "aggressive") with prefetch = Aggressive.decide }

let delay ~d () : Stream.policy =
  { (Stream.passive_policy (Printf.sprintf "delay(%d)" d)) with prefetch = Delay.rule ~d () }

(* ------------------------------------------------------------------ *)
(* History-based: shared speculative-fetch guard.

   A speculative fetch must not hurt: it waits for an idle disk, leaves
   the disk to the demand path whenever the cursor's own block still
   needs fetching, and displaces only a block the window proves useless
   (no in-window reference).  Predictions are clamped to blocks already
   seen so replayed schedules stay valid against any instance containing
   the trace. *)

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
      (* Evict only a block with no reference left in the window;
         otherwise everything cached is still wanted: don't pollute. *)
      if e >= 0 && Driver.next_ref d ~block:e ~from:c >= Driver.lookahead_end d then
        Driver.start_fetch d ~block:want ~evict:(Some e)
  end

(* One-block lookahead: every reference to b predicts b+1 (the classic
   sequential prefetcher).  Strong on scans, noise elsewhere — which is
   exactly what the pollution guard contains. *)
let obl () : Stream.policy =
  let want = ref (-1) in
  let on_find _t ~block ~hit:_ = want := block + 1 in
  let prefetch d = try_speculative d ~want:!want in
  { (Stream.passive_policy "obl") with prefetch; on_find }

(* First-order Markov predictor (Mithril-style frequency mining, one
   level deep): count observed successors per block, prefetch the most
   frequent successor of the block just referenced, ties towards the
   smallest block id for determinism.

   Each block keeps that argmax up to date as its counts change, so a
   request costs two table lookups, not a scan of the successor table.
   A count only ever grows by one, so the incremented successor takes
   over exactly when its new count beats the best's, or equals it with
   a smaller id; no other block's standing changes. *)
type successors = {
  counts : (int, int ref) Hashtbl.t;
  mutable best : int;  (* -1 until the first successor is seen *)
  mutable best_n : int;
}

let markov () : Stream.policy =
  let succ : (int, successors) Hashtbl.t = Hashtbl.create 64 in
  let successors_of b =
    match Hashtbl.find succ b with
    | s -> s
    | exception Not_found ->
      let s = { counts = Hashtbl.create 4; best = -1; best_n = 0 } in
      Hashtbl.add succ b s;
      s
  in
  (* The previous request's table; [none] before the first request. *)
  let none = { counts = Hashtbl.create 1; best = -1; best_n = 0 } in
  let prev = ref none in
  let want = ref (-1) in
  let on_find _t ~block ~hit:_ =
    let p = !prev in
    if p != none then begin
      let n =
        match Hashtbl.find p.counts block with
        | c ->
          incr c;
          !c
        | exception Not_found ->
          Hashtbl.add p.counts block (ref 1);
          1
      in
      if n > p.best_n || (n = p.best_n && block < p.best) then begin
        p.best <- block;
        p.best_n <- n
      end
    end;
    let s = successors_of block in
    prev := s;
    want := s.best
  in
  let prefetch d = try_speculative d ~want:!want in
  { (Stream.passive_policy "markov") with prefetch; on_find }

(* Pure demand paging: no speculation at all; the engine's demand path
   with furthest-cached eviction does everything.  The baseline every
   prefetcher should beat. *)
let demand () : Stream.policy = Stream.passive_policy "demand"

(* ------------------------------------------------------------------ *)
(* Registry. *)

type entry = { doc : string; build : fetch_time:int -> Stream.policy }

let registry : (string, entry) Hashtbl.t = Hashtbl.create 16

let register ~name ~doc build =
  if Hashtbl.mem registry name then
    invalid_arg (Printf.sprintf "Prefetcher.register: duplicate policy %S" name);
  Hashtbl.replace registry name { doc; build }

let find name = Option.map (fun e -> e.build) (Hashtbl.find_opt registry name)

let names () = List.sort String.compare (Hashtbl.fold (fun n _ acc -> n :: acc) registry [])

let all () =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun n e acc -> (n, e.doc) :: acc) registry [])

let () =
  register ~name:"aggressive"
    ~doc:"windowed Aggressive: fetch next missing, evict furthest (Cao et al.)"
    (fun ~fetch_time:_ -> aggressive ());
  register ~name:"delay"
    ~doc:"windowed Delay(d0) with the bound-minimizing distance for this fetch time"
    (fun ~fetch_time -> delay ~d:(Bounds.delay_opt_d ~f:fetch_time) ());
  register ~name:"obl" ~doc:"one-block lookahead: reference to b prefetches b+1"
    (fun ~fetch_time:_ -> obl ());
  register ~name:"markov"
    ~doc:"first-order successor predictor over the observed history (Mithril-style)"
    (fun ~fetch_time:_ -> markov ());
  register ~name:"demand" ~doc:"no prefetching: demand paging with furthest-cached eviction"
    (fun ~fetch_time:_ -> demand ())
