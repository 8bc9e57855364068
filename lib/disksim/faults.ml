(* Deterministic, seeded fault plans for the disk layer.

   Every random decision - is this attempt slowed, by how much, does it
   fail, how long does the fetch itself take - is a pure
   splitmix64-style hash of (plan seed, concern tag, disk, block,
   attempt number, start time).  Including the start time means a
   retried or re-issued fetch draws fresh randomness, so a plan with
   [fail_prob < 1] cannot pin a block down forever, while the whole run
   stays exactly reproducible from the seed.

   Each concern (jitter roll, jitter size, failure roll, latency draw)
   hashes its own tag into the stream, so the draws are mutually
   independent: adding or changing the latency distribution of a plan
   never perturbs its jitter or failure outcomes, and vice versa.  The
   per-stream values are pinned by a regression test. *)

type backoff =
  | Immediate
  | Fixed of int
  | Exponential of { base : int; factor : int; max_delay : int }

type retry = {
  backoff : backoff;
  max_attempts : int;
}

let default_retry = { backoff = Exponential { base = 1; factor = 2; max_delay = 8 }; max_attempts = 3 }

let backoff_delay retry ~attempt =
  match retry.backoff with
  | Immediate -> 0
  | Fixed d -> d
  | Exponential { base; factor; max_delay } ->
    let rec pow acc i = if i <= 1 then acc else pow (acc * factor) (i - 1) in
    min (base * pow 1 attempt) max_delay

type outage = {
  disk : int;
  from_time : int;
  until_time : int;
}

type latency =
  | Planned
  | Const of int
  | Uniform of { lo : int; hi : int }
  | Pareto of { xm : int; alpha : float; cap : int }

type t = {
  seed : int;
  jitter_prob : float;
  max_jitter : int;
  fail_prob : float;
  retry : retry;
  outages : outage list;
  latency : latency;
}

let none =
  { seed = 0; jitter_prob = 0.0; max_jitter = 0; fail_prob = 0.0; retry = default_retry;
    outages = []; latency = Planned }

let is_none t =
  t.jitter_prob = 0.0 && t.fail_prob = 0.0 && t.outages = [] && t.latency = Planned

(* Typed channel for "this plan is malformed": one exception instead of
   stringly Invalid_argument, so the CLI and the harness can report plan
   errors uniformly (PR 2/6 convention). *)
exception Invalid_plan of { field : string; reason : string }

let () =
  Printexc.register_printer (function
    | Invalid_plan { field; reason } ->
      Some (Printf.sprintf "Faults.make: invalid %s: %s" field reason)
    | _ -> None)

let invalid ~field fmt =
  Printf.ksprintf (fun reason -> raise (Invalid_plan { field; reason })) fmt

let make ?(seed = 1) ?(jitter_prob = 0.0) ?(max_jitter = 0) ?(fail_prob = 0.0)
    ?(retry = default_retry) ?(outages = []) ?(latency = Planned) () =
  if not (jitter_prob >= 0.0 && jitter_prob <= 1.0) then
    invalid ~field:"jitter_prob" "%g outside [0,1]" jitter_prob;
  if not (fail_prob >= 0.0 && fail_prob < 1.0) then
    invalid ~field:"fail_prob" "%g must be in [0,1)" fail_prob;
  if max_jitter < 0 then invalid ~field:"max_jitter" "negative (%d)" max_jitter;
  if jitter_prob > 0.0 && max_jitter = 0 then
    invalid ~field:"jitter_prob" "jitter_prob > 0 needs max_jitter > 0";
  if retry.max_attempts < 1 then
    invalid ~field:"retry" "max_attempts %d < 1" retry.max_attempts;
  (match retry.backoff with
   | Immediate -> ()
   | Fixed d -> if d < 0 then invalid ~field:"retry" "negative fixed backoff"
   | Exponential { base; factor; max_delay } ->
     if base < 0 || factor < 1 || max_delay < 0 then
       invalid ~field:"retry" "malformed exponential backoff");
  (match latency with
   | Planned -> ()
   | Const c -> if c < 1 then invalid ~field:"latency" "constant fetch time %d < 1" c
   | Uniform { lo; hi } ->
     if lo < 1 || hi < lo then invalid ~field:"latency" "uniform range [%d,%d]" lo hi
   | Pareto { xm; alpha; cap } ->
     if xm < 1 || cap < xm || not (alpha > 0.0) then
       invalid ~field:"latency" "pareto xm=%d alpha=%g cap=%d" xm alpha cap);
  List.iter
    (fun o ->
       if o.disk < 0 then invalid ~field:"outages" "outage on negative disk %d" o.disk;
       if o.from_time < 0 || o.until_time <= o.from_time then
         invalid ~field:"outages" "outage window [%d,%d) on disk %d" o.from_time o.until_time
           o.disk)
    outages;
  (* Sort and reject overlapping windows per disk so [next_up] is a single
     forward scan. *)
  let outages =
    List.sort
      (fun a b ->
         match Int.compare a.disk b.disk with 0 -> Int.compare a.from_time b.from_time | c -> c)
      outages
  in
  let rec check = function
    | a :: (b :: _ as rest) ->
      if a.disk = b.disk && b.from_time < a.until_time then
        invalid ~field:"outages" "overlapping outages on disk %d" a.disk;
      check rest
    | _ -> ()
  in
  check outages;
  { seed; jitter_prob; max_jitter; fail_prob; retry; outages; latency }

let pp_latency fmt = function
  | Planned -> Format.fprintf fmt "planned"
  | Const c -> Format.fprintf fmt "const:%d" c
  | Uniform { lo; hi } -> Format.fprintf fmt "uniform:%d:%d" lo hi
  | Pareto { xm; alpha; cap } -> Format.fprintf fmt "pareto:%d:%g:%d" xm alpha cap

let pp fmt t =
  if is_none t then Format.fprintf fmt "no faults"
  else begin
    Format.fprintf fmt "seed=%d" t.seed;
    if t.latency <> Planned then Format.fprintf fmt " latency=%a" pp_latency t.latency;
    if t.jitter_prob > 0.0 then
      Format.fprintf fmt " jitter=%g(max %d)" t.jitter_prob t.max_jitter;
    if t.fail_prob > 0.0 then begin
      Format.fprintf fmt " fail=%g retry=%d/" t.fail_prob t.retry.max_attempts;
      match t.retry.backoff with
      | Immediate -> Format.fprintf fmt "immediate"
      | Fixed d -> Format.fprintf fmt "fixed(%d)" d
      | Exponential { base; factor; max_delay } ->
        Format.fprintf fmt "exp(%d,%d,max %d)" base factor max_delay
    end;
    List.iter
      (fun o -> Format.fprintf fmt " outage(d%d,[%d,%d))" o.disk o.from_time o.until_time)
      t.outages
  end

(* ------------------------------------------------------------------ *)
(* Deterministic draws: splitmix64 finalizer over the attempt identity,
   one hash-split stream per concern. *)

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = mul (logxor z (shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  logxor z (shift_right_logical z 33)

let combine h v = mix64 (Int64.add (Int64.logxor h (Int64.of_int v)) 0x9e3779b97f4a7c15L)

(* A uniform float in [0,1) from the top 53 bits. *)
let u01 h = Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

(* Concern tags: folding a distinct tag into the hash before the attempt
   identity derives an independent stream per concern, so one concern's
   draw never shifts another's. *)
let tag_jitter_roll = 0x4a52 (* "JR" *)
let tag_jitter_size = 0x4a53 (* "JS" *)
let tag_fail = 0x464c (* "FL" *)
let tag_latency = 0x4c54 (* "LT" *)

let stream t ~tag ~disk ~block ~attempt ~start =
  combine
    (combine (combine (combine (combine (mix64 (Int64.of_int t.seed)) tag) disk) block) attempt)
    start

type draw = {
  duration : int;
  failed : bool;
}

(* The base service time of one attempt: the instance's fetch time under
   [Planned], otherwise a draw from the plan's latency distribution. *)
let latency_base t ~fetch_time ~disk ~block ~attempt ~start =
  match t.latency with
  | Planned -> fetch_time
  | Const c -> c
  | Uniform { lo; hi } ->
    let u = u01 (stream t ~tag:tag_latency ~disk ~block ~attempt ~start) in
    lo + min (hi - lo) (int_of_float (u *. float_of_int (hi - lo + 1)))
  | Pareto { xm; alpha; cap } ->
    (* Bounded Pareto by inverse CDF, truncated to the integer grid. *)
    let u = u01 (stream t ~tag:tag_latency ~disk ~block ~attempt ~start) in
    let fxm = float_of_int xm and fcap = float_of_int cap in
    let r = (fxm /. fcap) ** alpha in
    let x = fxm /. ((1.0 -. (u *. (1.0 -. r))) ** (1.0 /. alpha)) in
    max xm (min cap (int_of_float x))

let draw t ~fetch_time ~disk ~block ~attempt ~start =
  let roll tag = u01 (stream t ~tag ~disk ~block ~attempt ~start) in
  let base = latency_base t ~fetch_time ~disk ~block ~attempt ~start in
  let extra =
    if t.jitter_prob > 0.0 && roll tag_jitter_roll < t.jitter_prob then
      1 + int_of_float (roll tag_jitter_size *. float_of_int t.max_jitter) |> min t.max_jitter
    else 0
  in
  { duration = base + extra; failed = t.fail_prob > 0.0 && roll tag_fail < t.fail_prob }

let max_latency t ~fetch_time =
  match t.latency with
  | Planned -> fetch_time
  | Const c -> c
  | Uniform { hi; _ } -> hi
  | Pareto { cap; _ } -> cap

let mean_latency t ~fetch_time =
  match t.latency with
  | Planned -> float_of_int fetch_time
  | Const c -> float_of_int c
  | Uniform { lo; hi } -> float_of_int (lo + hi) /. 2.0
  | Pareto { xm; alpha; cap } ->
    (* Continuous bounded-Pareto mean; the integer truncation biases the
       realized mean slightly low, so this is a label, not an identity. *)
    let l = float_of_int xm and h = float_of_int cap in
    if abs_float (alpha -. 1.0) < 1e-9 then
      l *. h /. (h -. l) *. log (h /. l)
    else
      (l ** alpha) /. (1.0 -. ((l /. h) ** alpha))
      *. (alpha /. (alpha -. 1.0))
      *. ((1.0 /. (l ** (alpha -. 1.0))) -. (1.0 /. (h ** (alpha -. 1.0))))

(* A plain recursion rather than [List.exists]: the executor asks once
   per disk per instant, and a closure over [disk] and [time] would be
   allocated at every call. *)
let rec down_in outages ~disk ~time =
  match outages with
  | [] -> false
  | o :: rest ->
    (o.disk = disk && o.from_time <= time && time < o.until_time) || down_in rest ~disk ~time

let disk_down t ~disk ~time = down_in t.outages ~disk ~time

let next_up t ~disk ~time =
  (* Windows per disk are sorted and disjoint: chase the time forward. *)
  List.fold_left
    (fun tm o -> if o.disk = disk && o.from_time <= tm && tm < o.until_time then o.until_time else tm)
    time t.outages

(* ------------------------------------------------------------------ *)
(* Fault events and reports. *)

type event =
  | Slow of { time : int; disk : int; block : int; extra : int }
  | Fail of { time : int; disk : int; block : int; attempt : int }
  | Retry of { time : int; disk : int; block : int; attempt : int }
  | Give_up of { time : int; disk : int; block : int; attempts : int }
  | Interrupted of { time : int; disk : int; block : int }
  | Outage_begin of { time : int; disk : int }
  | Outage_end of { time : int; disk : int }
  | Replan of { time : int; cursor : int }

let event_time = function
  | Slow { time; _ } | Fail { time; _ } | Retry { time; _ } | Give_up { time; _ }
  | Interrupted { time; _ } | Outage_begin { time; _ } | Outage_end { time; _ }
  | Replan { time; _ } -> time

let pp_event fmt = function
  | Slow { time; disk; block; extra } ->
    Format.fprintf fmt "t=%-3d slow  d%d b%d (+%d)" time disk block extra
  | Fail { time; disk; block; attempt } ->
    Format.fprintf fmt "t=%-3d fail  d%d b%d (attempt %d)" time disk block attempt
  | Retry { time; disk; block; attempt } ->
    Format.fprintf fmt "t=%-3d retry d%d b%d (attempt %d)" time disk block attempt
  | Give_up { time; disk; block; attempts } ->
    Format.fprintf fmt "t=%-3d abandon d%d b%d after %d attempts" time disk block attempts
  | Interrupted { time; disk; block } ->
    Format.fprintf fmt "t=%-3d interrupted d%d b%d (outage)" time disk block
  | Outage_begin { time; disk } -> Format.fprintf fmt "t=%-3d disk %d down" time disk
  | Outage_end { time; disk } -> Format.fprintf fmt "t=%-3d disk %d up" time disk
  | Replan { time; cursor } -> Format.fprintf fmt "t=%-3d replan at r%d" time (cursor + 1)

type report = {
  injected_jitter : int;
  transient_failures : int;
  retries : int;
  abandoned : int;
  deferred_starts : int;
  outage_interrupts : int;
  dropped_fetches : int;
  skipped_evictions : int;
  fault_stall : int;
  replans : int;
  events : event list;
}

let empty_report =
  { injected_jitter = 0; transient_failures = 0; retries = 0; abandoned = 0; deferred_starts = 0;
    outage_interrupts = 0; dropped_fetches = 0; skipped_evictions = 0; fault_stall = 0;
    replans = 0; events = [] }

let pp_report fmt r =
  Format.fprintf fmt
    "jitter=+%d failures=%d retries=%d abandoned=%d deferred=%d interrupts=%d dropped=%d \
     fault_stall=%d replans=%d"
    r.injected_jitter r.transient_failures r.retries r.abandoned r.deferred_starts
    r.outage_interrupts r.dropped_fetches r.fault_stall r.replans
