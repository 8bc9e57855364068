(* The streaming engine's window index.

   [Win_ref] is checked against a naive model: every pushed block in one
   array plus a low edge, with each query answered from a plain scan.
   After every step the index must agree with the model on [block_at]
   for each in-window position, and on [next_at_or_after] and
   [prev_before] for every probe block and every bound within two
   positions of the window.  Block ids run up to 10^4, so the per-block
   arrays grow, and windows run past 64 positions, so the ring grows.

   Also here: a policy that reads past the known window gets the
   engine's typed internal error. *)

type op =
  | Push of int
  | Drop of int  (* drop below [lo - 2 + x], capped at the window edge *)

let pp_op = function Push b -> Printf.sprintf "push %d" b | Drop x -> Printf.sprintf "drop %d" x

(* Small ids repeat inside a window, so their queries walk; large ids
   make the per-block arrays grow.  [absent] is never pushed. *)
let small_ids = List.init 8 Fun.id
let absent = 20_000

(* Runs [ops] on a fresh index and on the model, comparing every query
   after each step.  Returns the first disagreement. *)
let check ops =
  let seq = Array.make (List.length ops) 0 in
  let lo = ref 0 and hi = ref 0 in
  let t = Win_ref.create () in
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun msg -> if !error = None then error := Some msg) fmt in
  let compare_queries step b =
    (* Model answers for every bound in [lo - 2, hi + 2], from one sweep
       each way. *)
    let base = !lo - 2 in
    let width = !hi + 2 - base + 1 in
    let next = Array.make width Win_ref.horizon and prev = Array.make width (-1) in
    for x = !hi + 2 downto base do
      let i = x - base in
      next.(i) <-
        (if x >= !hi then Win_ref.horizon
         else if x >= !lo && seq.(x) = b then x
         else next.(i + 1))
    done;
    for x = base to !hi + 2 do
      let i = x - base in
      prev.(i) <-
        (if x <= !lo then -1
         else if x - 1 < !hi && seq.(x - 1) = b then x - 1
         else prev.(i - 1))
    done;
    for x = base to !hi + 2 do
      let got = Win_ref.next_at_or_after t b ~from:x in
      if got <> next.(x - base) then
        fail "step %d: next_at_or_after b%d ~from:%d = %d, model %d (window [%d, %d))" step b
          x got next.(x - base) !lo !hi;
      let got = Win_ref.prev_before t b ~before:x in
      if got <> prev.(x - base) then
        fail "step %d: prev_before b%d ~before:%d = %d, model %d (window [%d, %d))" step b x
          got prev.(x - base) !lo !hi
    done
  in
  List.iteri
    (fun step op ->
       if !error = None then begin
         (match op with
          | Push b ->
            Win_ref.push t b;
            seq.(!hi) <- b;
            incr hi
          | Drop x ->
            let cursor = Stdlib.min !hi (!lo - 2 + x) in
            Win_ref.drop_below t cursor;
            lo := Stdlib.max !lo cursor);
         for p = !lo to !hi - 1 do
           let got = Win_ref.block_at t p in
           if got <> seq.(p) then fail "step %d: block_at %d = %d, model %d" step p got seq.(p)
         done;
         let probes = ref (absent :: small_ids) in
         for p = !lo to !hi - 1 do
           if not (List.mem seq.(p) !probes) then probes := seq.(p) :: !probes
         done;
         List.iter (compare_queries step) !probes
       end)
    ops;
  !error

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 400)
      (frequency
         [ (5, map (fun b -> Push b) (frequency [ (3, int_range 0 7); (1, int_range 0 10_000) ]));
           (1, map (fun x -> Drop x) (frequency [ (5, int_range 0 8); (1, int_range 0 300) ]))
         ]))

let prop_model =
  QCheck2.Test.make ~count:100 ~name:"Win_ref = naive window model"
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    gen_ops
    (fun ops ->
       match check ops with
       | None -> true
       | Some msg -> QCheck2.Test.fail_reportf "%s" msg)

(* A fixed run that surely grows both the ring (a window of 300) and the
   per-block arrays (ids near 10^4), then drains and refills it. *)
let test_growth () =
  let pushes n = List.init n (fun i -> Push (if i mod 5 = 4 then 9_999 - i else i mod 7)) in
  let ops =
    pushes 300 @ [ Drop 150 ] @ pushes 100 @ List.init 40 (fun _ -> Drop 7) @ [ Drop 1_000 ]
    @ pushes 70
  in
  match check ops with None -> () | Some msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Reads outside the known window. *)

let test_read_past_window () =
  let peek d = ignore (Driver.request_at d (Driver.lookahead_end d) : int) in
  let policy = { (Stream.passive_policy "peek") with Stream.prefetch = peek } in
  match
    Stream.run ~k:2 ~fetch_time:2 ~window:4 (Stream.of_array [| 0; 1; 2; 0; 1; 2 |]) policy
  with
  | _ -> Alcotest.fail "a read past the window was answered"
  | exception Simulate.Internal_error { component; reason } ->
    Alcotest.(check string) "component" "stream" component;
    let mentions needle =
      let lh = String.length reason and ln = String.length needle in
      let rec loop i = i + ln <= lh && (String.sub reason i ln = needle || loop (i + 1)) in
      loop 0
    in
    Alcotest.(check bool) ("reason names the position: " ^ reason) true (mentions "r5");
    Alcotest.(check bool) ("reason names the window: " ^ reason) true (mentions "known [0,4)")

let () =
  Alcotest.run "win_ref"
    [ ("model",
       [ Alcotest.test_case "ring and block arrays grow" `Quick test_growth;
         QCheck_alcotest.to_alcotest prop_model ]);
      ("driver", [ Alcotest.test_case "read past the window" `Quick test_read_past_window ]) ]
