(* The Combination algorithm (Corollary 2).

   If c0 = bound(Delay(d0)) with d0 = ceil((sqrt3 - 1)F/2) is smaller than
   Aggressive's Theorem-1 bound 1 + F/(k + ceil(k/F) - 1), run Delay(d0);
   otherwise run Aggressive.  The resulting approximation ratio is
   min{1 + F/(k + ceil(k/F) - 1), c0} -> min{..., sqrt 3}, strictly better
   than both Aggressive and Conservative in general. *)

type choice = Use_aggressive | Use_delay of int

let choose ~k ~f : choice =
  let d0 = Bounds.delay_opt_d ~f in
  let c0 = Bounds.delay_bound ~d:d0 ~f in
  if c0 < Bounds.aggressive_upper ~k ~f then Use_delay d0 else Use_aggressive

let rule (inst : Instance.t) =
  match choose ~k:inst.Instance.cache_size ~f:inst.Instance.fetch_time with
  | Use_aggressive -> Aggressive.decide
  | Use_delay d -> Delay.rule ~d ()

let schedule (inst : Instance.t) : Fetch_op.schedule =
  Driver.schedule (Driver.run inst ~decide:(rule inst))

let stats inst = Driver.validate ~name:"Combination" inst (schedule inst)

let elapsed_time inst = (stats inst).Simulate.elapsed_time
let stall_time inst = (stats inst).Simulate.stall_time
