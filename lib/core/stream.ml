(* Streaming runs: the online-with-bounded-lookahead front-end of the
   timeline engine.

   The batch entry point ({!Driver.run}) indexes a whole {!Instance.t}
   with {!Next_ref} - full-trace omniscience.  A streaming run models the
   paper's real setting instead: requests arrive incrementally from a
   pull-based {!source}, rules see only a bounded lookahead window of
   [w] requests past the cursor, and next-reference knowledge is
   truncated at the window edge ({!Win_ref.horizon} beyond it).  Both run
   on {!Driver}'s one instant loop; [run] picks the windowed index, and
   with it the observer hooks, the demand fetch and the window refill.

   Policies plug in behind libCacheSim-style hooks ({!policy}:
   [prefetch] / [on_find] / [on_insert] / [on_evict]) and read the
   engine through {!Driver}'s window-safe accessors; the built-in
   policies live in {!Prefetcher}.  Because Aggressive and Delay(d) are
   the same rules in both modes, at [w = n] their streaming schedules
   are byte-identical to the batch ones - the streaming oracle class in
   lib/check pins this across the fuzz corpus.  No full-trace arrays
   are held: memory is O(window + cache + largest block id), so endless
   traces over a bounded block universe stream in constant space. *)

(* ------------------------------------------------------------------ *)
(* Sources. *)

type source = { name : string; pull : unit -> int option }

let source ~name pull = { name; pull }

let of_array ?(name = "array") arr =
  let i = ref 0 in
  { name;
    pull =
      (fun () ->
         if !i >= Array.length arr then None
         else begin
           let v = arr.(!i) in
           incr i;
           Some v
         end) }

let of_list ?(name = "list") l =
  let rest = ref l in
  { name;
    pull =
      (fun () ->
         match !rest with
         | [] -> None
         | v :: tl ->
           rest := tl;
           Some v) }

let of_reader ?(name = "trace") (r : Trace_io.reader) =
  { name; pull = (fun () -> Trace_io.read_request r) }

let take n src =
  let left = ref n in
  { name = src.name;
    pull =
      (fun () ->
         if !left <= 0 then None
         else begin
           decr left;
           src.pull ()
         end) }

(* Endless synthetic twins of the {!Workload} generators: same RNG
   discipline (one [Random.State] consumed in request order), so a
   [take n] prefix is element-identical to the corresponding batch
   array — a tested invariant. *)

let rng seed = Random.State.make [| seed; 0x9e3779b9 |]

let check_blocks source num_blocks =
  if num_blocks < 1 then
    Instance.invalidf "Stream.%s: num_blocks must be >= 1 (got %d)" source num_blocks

let uniform ~seed ~num_blocks =
  check_blocks "uniform" num_blocks;
  let st = rng seed in
  { name = "uniform"; pull = (fun () -> Some (Random.State.int st num_blocks)) }

let zipf ~seed ~alpha ~num_blocks =
  check_blocks "zipf" num_blocks;
  let st = rng seed in
  let weights = Array.init num_blocks (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) alpha) in
  let cdf = Array.make num_blocks 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun i w ->
       total := !total +. w;
       cdf.(i) <- !total)
    weights;
  let sample () =
    let x = Random.State.float st !total in
    let lo = ref 0 and hi = ref (num_blocks - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) >= x then hi := mid else lo := mid + 1
    done;
    !lo
  in
  { name = "zipf"; pull = (fun () -> Some (sample ())) }

let sequential_scan ~num_blocks =
  check_blocks "sequential_scan" num_blocks;
  let i = ref 0 in
  { name = "scan";
    pull =
      (fun () ->
         let v = !i mod num_blocks in
         incr i;
         Some v) }

let phase_shift ~seed ~num_blocks ~phase_len ~working_set =
  check_blocks "phase_shift" num_blocks;
  if phase_len < 1 then
    Instance.invalidf "Stream.phase_shift: phase_len must be >= 1 (got %d)" phase_len;
  if working_set < 1 || working_set > num_blocks then
    Instance.invalidf "Stream.phase_shift: working_set must be in [1, %d] (got %d)" num_blocks
      working_set;
  let st = rng seed in
  let stride = Stdlib.max 1 (working_set / 2) in
  let i = ref 0 in
  { name = "phase_shift";
    pull =
      (fun () ->
         let phase = !i / phase_len in
         incr i;
         let offset = phase * stride mod num_blocks in
         let a = Random.State.int st working_set in
         let b = Random.State.int st working_set in
         Some ((offset + Stdlib.min a b) mod num_blocks)) }

(* ------------------------------------------------------------------ *)
(* Policies and runs. *)

type policy = {
  policy_name : string;
  prefetch : Driver.t -> unit;  (* the per-instant decision slot (disk may be busy) *)
  on_find : Driver.t -> block:int -> hit:bool -> unit;  (* once per request, at first attempt *)
  on_insert : Driver.t -> block:int -> unit;  (* a fetched block became resident *)
  on_evict : Driver.t -> block:int -> unit;  (* a resident block was dropped *)
}

(* A policy with no-op hooks, for partial overrides. *)
let passive_policy name =
  { policy_name = name;
    prefetch = (fun _ -> ());
    on_find = (fun _ ~block:_ ~hit:_ -> ());
    on_insert = (fun _ ~block:_ -> ());
    on_evict = (fun _ ~block:_ -> ()) }

type outcome = {
  policy : string;
  window_used : int;
  stall_time : int;
  elapsed_time : int;
  served : int;
  fetches : int;
  demand_fetches : int;
  refills : int;
  schedule : Fetch_op.t list option;
}

let run ?(record_schedule = false) ?(initial_cache = []) ~k ~fetch_time ~window src
    (pol : policy) : outcome =
  let d =
    Driver.run_stream ~k ~fetch_time ~window ~record_schedule ~initial_cache
      ~hooks:{ Driver.on_find = pol.on_find; on_insert = pol.on_insert; on_evict = pol.on_evict }
      ~decide:pol.prefetch src.pull
  in
  { policy = pol.policy_name;
    window_used = window;
    stall_time = Driver.stall_time d;
    elapsed_time = Driver.time d;
    served = Driver.cursor d;
    fetches = Driver.fetches d;
    demand_fetches = Driver.demand_fetches d;
    refills = Driver.refills d;
    schedule = (if record_schedule then Some (Driver.schedule d) else None) }
