(* Text format for instances and traces, so experiments can be saved,
   shared and replayed outside the generators.

   Format (line-oriented, '#' comments):

     # integrated prefetching/caching instance
     k 4
     f 4
     disks 2
     layout 0 0 0 0 1 1 1        # block -> disk (optional; default all 0)
     init 0 1 4 5                # initial cache (optional; default warm)
     seq 0 1 4 5 2 6 3
     seq 3 3 1                   # seq may repeat; requests concatenate

   The parser is strict: duplicate header keys, CRLF line endings,
   non-integer or overflowing fields and trailing garbage are all
   rejected, each with the 1-based line number, so a truncated or
   hand-mangled trace fails loudly instead of silently producing a
   different instance.

   Parsing is incremental: the reader holds one line at a time, so a
   multi-gigabyte trace streams through in constant memory.  The only
   ordering rule this imposes is that header keys must precede the first
   [seq] line (which every writer, including [save_instance], already
   satisfies). *)

(* Writing chunks the sequence over multiple [seq] lines so readers are
   never forced to materialize one huge line. *)
let seq_chunk = 1024

let save_instance (path : string) (inst : Instance.t) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
       Printf.fprintf oc "# integrated prefetching/caching instance\n";
       Printf.fprintf oc "k %d\n" inst.Instance.cache_size;
       Printf.fprintf oc "f %d\n" inst.Instance.fetch_time;
       Printf.fprintf oc "disks %d\n" inst.Instance.num_disks;
       Printf.fprintf oc "layout %s\n"
         (String.concat " " (Array.to_list (Array.map string_of_int inst.Instance.disk_of)));
       Printf.fprintf oc "init %s\n"
         (String.concat " " (List.map string_of_int inst.Instance.initial_cache));
       let seq = inst.Instance.seq in
       let n = Array.length seq in
       let i = ref 0 in
       while !i < n do
         let stop = min n (!i + seq_chunk) in
         output_string oc "seq";
         for j = !i to stop - 1 do
           output_char oc ' ';
           output_string oc (string_of_int seq.(j))
         done;
         output_char oc '\n';
         i := stop
       done;
       if n = 0 then output_string oc "seq\n")

exception Parse_error of { file : string; line : int; message : string }

let () =
  Printexc.register_printer (function
    | Parse_error { file; line; message } -> Some (Printf.sprintf "%s:%d: %s" file line message)
    | _ -> None)

type header = {
  cache_size : int;
  fetch_time : int;
  num_disks : int;
  layout : int array option;
  initial_cache : int list option;
}

type reader = {
  file : string;
  ic : in_channel;
  mutable lineno : int;
  mutable hdr : header;
  mutable saw_seq : bool;
  (* Scan state: [cur] is the last line read, and [cur.[pos .. stop)]
     the not-yet-consumed rest of it after the key (comment and
     surrounding blanks excluded). *)
  mutable cur : string;
  mutable pos : int;
  mutable stop : int;
  mutable eof : bool;
  mutable closed : bool;
}

let parse_error_at file line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { file; line; message })) fmt

let parse_error r fmt = parse_error_at r.file r.lineno fmt

(* [int_of_string_opt] accepts "0x10", "1_000" and unary '+'; the trace
   format wants plain decimal integers only, and must reject overflow. *)
let strict_int r s =
  let ok =
    s <> "" && s <> "-"
    && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s
    && (not (String.contains_from s 1 '-'))
  in
  if not ok then parse_error r "not an integer: %S" s;
  match int_of_string_opt s with
  | Some v -> v
  | None -> parse_error r "integer out of range: %s" s

let ints r rest =
  String.split_on_char ' ' rest |> List.filter (fun s -> s <> "") |> List.map (strict_int r)

let one r rest =
  match ints r rest with
  | [ v ] -> v
  | [] -> parse_error r "missing value"
  | _ :: _ -> parse_error r "trailing garbage after value: %s" (String.trim rest)

let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* Reads the next meaningful line into [r.cur] and returns its key, or
   [None] at EOF; [r.cur.[r.pos .. r.stop)] is then the rest of the line.
   Comments and blank lines are skipped; CRLF is rejected.  Only the key
   is copied: a [seq] payload is scanned in the line [input_line]
   returned. *)
let rec next_key r =
  match input_line r.ic with
  | exception End_of_file -> None
  | raw ->
    r.lineno <- r.lineno + 1;
    if String.contains raw '\r' then parse_error r "CRLF line ending (expected LF-only)";
    (* [raw.[a .. b)]: the line cut at its first '#', then trimmed as
       [String.trim] would. *)
    let len = String.length raw in
    let a = ref 0 in
    while !a < len && is_blank raw.[!a] do
      incr a
    done;
    let b = ref (match String.index_from_opt raw !a '#' with Some i -> i | None -> len) in
    while !b > !a && is_blank raw.[!b - 1] do
      decr b
    done;
    let a = !a and b = !b in
    if a = b then next_key r
    else begin
      r.cur <- raw;
      r.stop <- b;
      match String.index_from_opt raw a ' ' with
      | Some i when i < b ->
        r.pos <- i + 1;
        Some (String.sub raw a (i - a))
      | Some _ | None ->
        (* A bare [seq] line (empty payload) is legal; anything else is
           malformed. *)
        let line = String.sub raw a (b - a) in
        if line <> "seq" then parse_error r "malformed line: %s" line;
        r.pos <- b;
        Some line
    end

(* The rest of a header line, as a string of its own. *)
let rest r = String.sub r.cur r.pos (r.stop - r.pos)

(* Advances [r] to the next [seq] payload.  Called with the current
   payload exhausted. *)
let refill r =
  match next_key r with
  | None -> r.eof <- true
  | Some "seq" -> ()
  | Some (("k" | "f" | "disks" | "layout" | "init") as key) ->
    parse_error r "key %s after first seq line (header must precede seq)" key
  | Some key -> parse_error r "unknown key: %s" key

let open_reader (path : string) : reader =
  let ic = open_in path in
  let r =
    { file = path;
      ic;
      lineno = 0;
      hdr =
        { cache_size = 0; fetch_time = 0; num_disks = 1; layout = None; initial_cache = None };
      saw_seq = false;
      cur = "";
      pos = 0;
      stop = 0;
      eof = false;
      closed = false }
  in
  (try
     let k = ref None and f = ref None and disks = ref None in
     let layout = ref None and init = ref None in
     let set name cell v =
       match !cell with
       | Some _ -> parse_error r "duplicate key: %s" name
       | None -> cell := Some v
     in
     let rec header_loop () =
       match next_key r with
       | None -> ()
       | Some "seq" -> r.saw_seq <- true
       | Some key ->
         (match key with
          | "k" -> set "k" k (one r (rest r))
          | "f" -> set "f" f (one r (rest r))
          | "disks" -> set "disks" disks (one r (rest r))
          | "layout" -> set "layout" layout (Array.of_list (ints r (rest r)))
          | "init" -> set "init" init (ints r (rest r))
          | _ -> parse_error r "unknown key: %s" key);
         header_loop ()
     in
     header_loop ();
     if not r.saw_seq then r.eof <- true;
     let k = match !k with Some v -> v | None -> parse_error_at path 0 "missing k" in
     let f = match !f with Some v -> v | None -> parse_error_at path 0 "missing f" in
     r.hdr <-
       { cache_size = k;
         fetch_time = f;
         num_disks = (match !disks with Some v -> v | None -> 1);
         layout = !layout;
         initial_cache = !init }
   with e ->
     close_in_noerr ic;
     raise e);
  r

let header (r : reader) : header = r.hdr
let saw_seq (r : reader) : bool = r.saw_seq
let line (r : reader) : int = r.lineno

let close_reader (r : reader) : unit =
  if not r.closed then begin
    r.closed <- true;
    close_in_noerr r.ic
  end

(* Next token of the current payload, or [None] when the line (and, after
   [refill], the file) is exhausted.  A run of at most 18 digits is read
   in place: it cannot overflow (10^18 - 1 < max_int).  Any other token
   goes through [strict_int] as a string of its own, which accepts or
   reports it. *)
let rec read_request (r : reader) : int option =
  if r.eof then None
  else begin
    let s = r.cur and stop = r.stop in
    let p = ref r.pos in
    while !p < stop && s.[!p] = ' ' do
      incr p
    done;
    if !p >= stop then begin
      refill r;
      read_request r
    end
    else begin
      let start = !p in
      let v = ref 0 in
      while !p < stop && s.[!p] >= '0' && s.[!p] <= '9' do
        v := (10 * !v) + (Char.code s.[!p] - Char.code '0');
        incr p
      done;
      if (!p >= stop || s.[!p] = ' ') && !p - start <= 18 then begin
        r.pos <- !p;
        Some !v
      end
      else begin
        while !p < stop && s.[!p] <> ' ' do
          incr p
        done;
        r.pos <- !p;
        Some (strict_int r (String.sub s start (!p - start)))
      end
    end
  end

let with_reader (path : string) (fn : reader -> 'a) : 'a =
  let r = open_reader path in
  Fun.protect ~finally:(fun () -> close_reader r) (fun () -> fn r)

let load_instance (path : string) : Instance.t =
  with_reader path (fun r ->
      if not r.saw_seq then parse_error_at path 0 "missing seq";
      (* Materialize the stream; only this eager entry point does. *)
      let buf = ref (Array.make 1024 0) in
      let n = ref 0 in
      let push v =
        if !n = Array.length !buf then begin
          let grown = Array.make (2 * !n) 0 in
          Array.blit !buf 0 grown 0 !n;
          buf := grown
        end;
        !buf.(!n) <- v;
        incr n
      in
      let rec drain () =
        match read_request r with
        | Some v ->
          push v;
          drain ()
        | None -> ()
      in
      drain ();
      let seq = Array.sub !buf 0 !n in
      let { cache_size = k; fetch_time = f; num_disks = disks; layout; initial_cache } =
        r.hdr
      in
      let init =
        match initial_cache with
        | Some init -> init
        | None -> Instance.warm_initial_cache ~k seq
      in
      match layout with
      | None when disks = 1 -> Instance.single_disk ~k ~fetch_time:f ~initial_cache:init seq
      | None -> parse_error_at path 0 "layout required when disks > 1"
      | Some disk_of ->
        Instance.parallel ~k ~fetch_time:f ~num_disks:disks ~disk_of ~initial_cache:init seq)
