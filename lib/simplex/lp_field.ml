(* Number fields the simplex solver can pivot over.

   The solver is written as a functor so the same code runs over exact
   rationals (reference, used to certify stall-time optimality claims) and
   over floats (fast path; see the hybrid driver in {!Simplex.solve_exact}).
   The only subtlety is [is_zero]/sign tests: exact for rationals, but
   tolerance-based for floats.

   Besides scalar arithmetic, a field supplies every per-element loop of
   the revised simplex ({!Revised.Make}) as an array kernel: FTRAN and
   BTRAN over the eta file, one BTRAN eta of the pivot row's hypersparse
   BTRAN, refactorization's pivot choice and eta extraction, the pivot's
   primal update, pricing (the Dantzig chunk scan, Bland's first-negative
   scan, and a full reduced-cost pass) and the dual update from the pivot
   row.  Functor code cannot be specialized to [float] by this toolchain
   (no flambda, and cross-module inlining is off under [-opaque]), so each
   [F.sub]/[F.mul]/[F.compare] call and each read from an [F.t array]
   inside [Revised.Make] boxes a float.  The float field runs these loops
   over unboxed [float array]s instead; the rational field runs the very
   same loops over [Rat.t].  Both perform the same operations, with the
   same comparisons, in the same order as the generic loops they replace.

   The data the kernels work on is defined here too:

   - The eta file is flat: pivot row, pivot value and entry start per
     eta, and one row array and one value array for every off-pivot
     entry.  Its arrays grow geometrically and are reused across
     refactorizations, so pushing an eta allocates nothing once warm.
   - A nonzero tracker lists the positions a work vector was written at.
   - The row index of one factorization ([rowix]): the eta pivoting on
     each row, and a transposed (CSR) index of the rows each eta lists
     off-pivot.  Hypersparse FTRAN ([ftran_hyper]) walks the first,
     hypersparse BTRAN of a unit row ([rho_hyper]) both.
   - A row-wise copy of the constraint columns, for the dual update. *)

(* The product-form inverse B^-1 = E_{n-1} ... E_1 E_0.  Applying eta t
   to a vector x realizes the Gauss-Jordan step that turned the pivot
   column into the [er.(t)]-th unit vector: x.er <- x.er / epiv, then
   x.i <- x.i - ev.(k) * x.er over the off-pivot entries
   k in [start.(t), start.(t+1)), whose rows are [ei.(k)]. *)
type 'a etas = {
  mutable n : int;  (* etas in the file *)
  mutable er : int array;  (* pivot row per eta *)
  mutable epiv : 'a array;  (* pivot entry per eta *)
  mutable start : int array;  (* first entry per eta; start.(n) ends the last *)
  mutable ei : int array;  (* off-pivot rows *)
  mutable ev : 'a array;  (* matching entries of the pivot column *)
}

let create_etas (zero : 'a) : 'a etas =
  { n = 0;
    er = Array.make 64 0;
    epiv = Array.make 64 zero;
    start = Array.make 65 0;
    ei = Array.make 1024 0;
    ev = Array.make 1024 zero }

let grow (a : 'a array) (fill : 'a) len =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Make room for one more eta with up to [nent] off-pivot entries,
   doubling whichever arrays are short. *)
let reserve (f : 'a etas) (zero : 'a) nent =
  if f.n + 1 >= Array.length f.er then begin
    let cap = 2 * Array.length f.er in
    f.er <- grow f.er 0 cap;
    f.epiv <- grow f.epiv zero cap;
    f.start <- grow f.start 0 (cap + 1)
  end;
  let need = f.start.(f.n) + nent in
  if need > Array.length f.ei then begin
    let cap = max need (2 * Array.length f.ei) in
    f.ei <- grow f.ei 0 cap;
    f.ev <- grow f.ev zero cap
  end

(* Sparsity tracker for one work vector: the positions written so far (a
   superset of its nonzeros), in first-write order.  Every write to a
   tracked vector goes through [touch] first. *)
type tracker = {
  mark : bool array;
  nzl : int array;  (* positions written, first n_nz entries *)
  mutable n_nz : int;
}

let tracker n = { mark = Array.make n false; nzl = Array.make n 0; n_nz = 0 }

let touch tr i =
  if not tr.mark.(i) then begin
    tr.mark.(i) <- true;
    tr.nzl.(tr.n_nz) <- i;
    tr.n_nz <- tr.n_nz + 1
  end

(* Re-zero exactly the written positions of a tracked vector. *)
let clear_tracked (zero : 'a) (x : 'a array) tr =
  for q = 0 to tr.n_nz - 1 do
    let i = tr.nzl.(q) in
    x.(i) <- zero;
    tr.mark.(i) <- false
  done;
  tr.n_nz <- 0

(* Row-wise (CSR) copy of the constraint columns [0, ncols): row i's
   entries are [rstart.(i), rstart.(i+1)), columns [rcol] ascending. *)
type 'a rows = {
  rstart : int array;
  rcol : int array;
  rval : 'a array;
}

let rows_of_cols m (cols : (int array * 'a array) array) (zero : 'a) : 'a rows =
  let rstart = Array.make (m + 1) 0 in
  Array.iter (fun (ri, _) -> Array.iter (fun i -> rstart.(i + 1) <- rstart.(i + 1) + 1) ri) cols;
  for i = 0 to m - 1 do
    rstart.(i + 1) <- rstart.(i + 1) + rstart.(i)
  done;
  let nnz = rstart.(m) in
  let rcol = Array.make nnz 0 and rval = Array.make nnz zero in
  let fill = Array.sub rstart 0 m in
  Array.iteri
    (fun j (ri, rv) ->
       Array.iteri
         (fun q i ->
            rcol.(fill.(i)) <- j;
            rval.(fill.(i)) <- rv.(q);
            fill.(i) <- fill.(i) + 1)
         ri)
    cols;
  { rstart; rcol; rval }

(* Binary min-heap of ints in [heap.(0 .. size-1)]. *)
let heap_push (heap : int array) size t =
  let k = ref size in
  while !k > 0 && heap.((!k - 1) / 2) > t do
    heap.(!k) <- heap.((!k - 1) / 2);
    k := (!k - 1) / 2
  done;
  heap.(!k) <- t

(* Remove and return the minimum; [size] is the size before the pop. *)
let heap_pop (heap : int array) size =
  let top = heap.(0) in
  let size = size - 1 in
  let last = heap.(size) in
  let k = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let c = (2 * !k) + 1 in
    if c >= size then continue_ := false
    else begin
      let c = if c + 1 < size && heap.(c + 1) < heap.(c) then c + 1 else c in
      if heap.(c) < last then begin
        heap.(!k) <- heap.(c);
        k := c
      end
      else continue_ := false
    end
  done;
  heap.(!k) <- last;
  top

(* Row index of the etas [0, n_fact) of one factorization, whose pivot
   rows are distinct: [eta_of_row.(r)] is the eta pivoting on row r (or
   -1), and row i's slice [ix_start.(i), ix_start.(i+1)) of [reta] lists, in
   ascending order, the etas with an off-pivot entry in row i.  [heap] and
   [queued] are workspaces of the hypersparse solves; a factorization has
   at most one eta per row, so both are as long as the row count. *)
type rowix = {
  mutable n_fact : int;
  eta_of_row : int array;
  ix_start : int array;  (* length m + 1 *)
  mutable reta : int array;
  heap : int array;
  queued : int array;  (* per eta: the [stamp] of the last solve that queued it *)
  mutable stamp : int;
  mutable hsize : int;
}

let rowix m =
  { n_fact = 0;
    eta_of_row = Array.make m (-1);
    ix_start = Array.make (m + 1) 0;
    reta = Array.make 1024 0;
    heap = Array.make m 0;
    queued = Array.make m 0;
    stamp = 0;
    hsize = 0 }

(* Index the whole file [f] as one factorization ([eta_of_row] is filled
   as its etas are pushed).  A counting sort by row: the counts go one
   slot right, the fill advances each row's start onto the next row's,
   and a final shift restores the starts. *)
let index_factorization (f : 'a etas) ix =
  let m = Array.length ix.eta_of_row in
  let st = ix.ix_start in
  Array.fill st 0 (m + 1) 0;
  let nnz = f.start.(f.n) in
  for k = 0 to nnz - 1 do
    let i = f.ei.(k) in
    st.(i + 1) <- st.(i + 1) + 1
  done;
  for i = 0 to m - 1 do
    st.(i + 1) <- st.(i + 1) + st.(i)
  done;
  if nnz > Array.length ix.reta then ix.reta <- Array.make (max nnz (2 * Array.length ix.reta)) 0;
  for t = 0 to f.n - 1 do
    for k = f.start.(t) to f.start.(t + 1) - 1 do
      let i = f.ei.(k) in
      ix.reta.(st.(i)) <- t;
      st.(i) <- st.(i) + 1
    done
  done;
  for i = m downto 1 do
    st.(i) <- st.(i - 1)
  done;
  st.(0) <- 0;
  ix.n_fact <- f.n

(* Hypersparse tracked FTRAN over the etas of one factorization, complete
   or under construction: those [ix.eta_of_row] lists, whose pivot rows
   are distinct.  Etas of [f] it does not list (the update etas of later
   pivots) are left to the caller.  [step] is a field's [eta_tracked].

   An eta changes x only if x.(er) is nonzero when its turn comes, and er
   can only be nonzero if it was loaded or filled by an earlier eta.  So a
   min-heap of eta indices, seeded with the etas of the tracked rows and
   fed the later etas of the rows each step touches for the first time,
   pops exactly the etas a full scan in index order would apply, in the
   same order, and the tracker sees the same touches.  The etas it skips
   are those whose pivot row is still untouched, hence exactly zero, when
   their turn comes. *)
let ftran_hyper step (f : 'a etas) ix (x : 'a array) tr =
  let heap = ix.heap and eta_of_row = ix.eta_of_row in
  let size = ref 0 in
  for q = 0 to tr.n_nz - 1 do
    let t = eta_of_row.(tr.nzl.(q)) in
    if t >= 0 then begin
      heap_push heap !size t;
      incr size
    end
  done;
  while !size > 0 do
    let t = heap_pop heap !size in
    decr size;
    let fresh = tr.n_nz in
    step f t x tr;
    for q = fresh to tr.n_nz - 1 do
      let t' = eta_of_row.(tr.nzl.(q)) in
      if t' > t then begin
        heap_push heap !size t';
        incr size
      end
    done
  done

(* Queue eta t once per solve.  The heap is a min-heap of negated
   indices, i.e. a max-heap. *)
let enqueue ix t =
  if ix.queued.(t) <> ix.stamp then begin
    ix.queued.(t) <- ix.stamp;
    heap_push ix.heap ix.hsize (-t);
    ix.hsize <- ix.hsize + 1
  end

(* Queue the factorization etas below [bound] that read row i in a BTRAN
   after a write of class [cls] to it (see [btran_eta_tracked]): for a
   value outside the zero tolerance, those listing row i off-pivot and the
   one pivoting on it; for a nonzero value inside the tolerance, which the
   off-pivot dot products drop, only the one pivoting on it; for an exact
   zero, none. *)
let queue_row ix i cls bound =
  if cls = 2 then begin
    let k = ref ix.ix_start.(i) in
    let stop = ix.ix_start.(i + 1) in
    while !k < stop && ix.reta.(!k) < bound do
      enqueue ix ix.reta.(!k);
      incr k
    done
  end;
  let t = ix.eta_of_row.(i) in
  if cls > 0 && t >= 0 && t < bound then enqueue ix t

(* Hypersparse tracked BTRAN, x <- B^-T x, for an [x] that is zero outside
   its tracked rows, all of them outside the zero tolerance (a unit row
   e_r gives rho_r = e_r^T B^-1).  [f] is one factorization ([ix] indexes
   its first [ix.n_fact] etas) followed by the update etas of later
   pivots.  [step] is a field's [btran_eta_tracked].

   A BTRAN eta t writes its pivot row: the row's value, minus its
   off-pivot rows' values that are outside the zero tolerance times the
   entries, over the pivot.  If the pivot row holds an exact zero and its
   off-pivot rows are all inside the tolerance, it writes a (possibly
   negative) zero and changes nothing.  So the update etas (in [Revised],
   those of at most 128 pivots) are applied in full, from the last down,
   and the factorization etas below them run from a max-heap, fed by
   every write with the etas that read the written value ([queue_row]).
   Every eta the full BTRAN would change x with is popped, in descending
   order, and reads the same values up to the sign of zeros.  Every
   written row is touched, also when the value written is zero or inside
   the tolerance, so that clearing the tracked rows leaves the workspace
   all zero. *)
let rho_hyper step (f : 'a etas) ix (x : 'a array) tr =
  let n_fact = ix.n_fact in
  ix.stamp <- ix.stamp + 1;
  ix.hsize <- 0;
  for q = 0 to tr.n_nz - 1 do
    queue_row ix tr.nzl.(q) 2 n_fact
  done;
  for t = f.n - 1 downto n_fact do
    let cls = step f t x tr in
    queue_row ix f.er.(t) cls n_fact
  done;
  while ix.hsize > 0 do
    let t = -heap_pop ix.heap ix.hsize in
    ix.hsize <- ix.hsize - 1;
    let cls = step f t x tr in
    queue_row ix f.er.(t) cls t
  done

module type FIELD = sig
  type t

  val zero : t
  val one : t
  val of_rat : Rat.t -> t
  val to_float : t -> float
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t
  val compare : t -> t -> int

  val is_zero : t -> bool
  (** Whether the value should be treated as exactly zero by pivoting. *)

  val pp : Format.formatter -> t -> unit

  (** {2 Array kernels} *)

  val load_tracked : int array -> t array -> t array -> tracker -> unit
  (** [load_tracked ri rv x tr] writes the sparse column [(ri, rv)] into
      [x], [touch]ing each row before it is written. *)

  val ftran : t etas -> t array -> unit
  (** [ftran f x] applies the etas of [f] forward to [x] (x <- B^-1 x),
      skipping each eta whose pivot-row entry [is_zero]. *)

  val eta_tracked : t etas -> int -> t array -> tracker -> unit
  (** Eta [t] of a tracked FTRAN: a no-op if [x.(er)] [is_zero], else the
      eta's update with every off-pivot row [touch]ed, in entry order,
      before it is written. *)

  val btran : t etas -> t array -> unit
  (** [btran f y] applies the eta file in reverse (y <- B^-T y); entries
      of [y] that are [is_zero] drop out of each dot product. *)

  val btran_eta_tracked : t etas -> int -> t array -> tracker -> int
  (** Eta [t] of a tracked BTRAN: [btran]'s step for that eta, with its
      pivot row [touch]ed before it is written.  Returns the class of the
      value written: 0 for an exact zero, 1 for a nonzero value that
      [is_zero], 2 otherwise. *)

  val push_tracked : t etas -> skip_identity:bool -> int -> t array -> tracker -> bool
  (** [push_tracked f ~skip_identity r x tr] appends the eta that pivots
      the tracked column [x] on row [r]: pivot [x.(r)], off-pivot entries
      the tracked rows other than [r] whose value is not [is_zero], in
      tracker order.  With [skip_identity], an eta with no off-pivot
      entry and a pivot that compares equal to [one] is not pushed.
      Returns whether the eta was pushed. *)

  val choose_pivot : t array -> tracker -> bool array -> int
  (** Refactorization's pivot row for the tracked column [x]: among the
      tracked rows not yet [done] whose value is not [is_zero], a value
      comparing equal to [one] or minus [one] first, else the largest
      [abs (to_float x.(i))]; the earliest in tracker order on ties.  -1
      if there is none. *)

  val ratio_test : t array -> tracker -> t array -> int array -> bool -> int
  (** [ratio_test w tr x_b basis bland] is the leaving row for the tracked
      entering column [w] = B^-1 a_q: over the tracked rows i whose [w.(i)]
      is above [zero] under [compare], the least ratio x_b.(i) / w.(i)
      under [compare].  Ratios that compare equal go to the larger
      [abs (to_float w.(i))] (float stability), or under [bland] to the
      smaller [basis.(i)] (termination); earlier rows keep remaining ties.
      -1 if no entry is positive. *)

  val pivot_primal : t array -> t array -> tracker -> int -> t
  (** [pivot_primal x_b w tr r] takes the primal step of a pivot on row
      [r] with entering column [w] (tracked): theta = x_b.(r) / w.(r);
      unless theta [is_zero], x_b.(i) <- x_b.(i) - w.(i) * theta over the
      tracked rows i <> r whose [w.(i)] is not [is_zero]; then
      x_b.(r) <- theta.  Returns theta. *)

  val reduced_cost : t array -> (int array * t array) array -> t array -> int -> t
  (** [reduced_cost c cols y j] is the reduced cost of the sparse column
      [cols.(j) = (ri, rv)] under duals [y]: [c.(j) - y.(ri.(q)) * rv.(q)]
      accumulated left to right over the [q] whose [y.(ri.(q))] is not
      [is_zero]. *)

  val reduced_costs :
    t array -> (int array * t array) array -> t array -> bool array -> t array -> unit
  (** [reduced_costs c cols y in_basis d] sets [d.(j)] to
      [reduced_cost c cols y j] for every non-basic [j] of [d], and to
      [zero] for every basic one. *)

  val price_dantzig : t array -> bool array -> int -> int ref -> int
  (** [price_dantzig d in_basis chunk from]: Dantzig pricing with a
      wrap-around partial chunk.  Scans the non-basic columns of [d] from
      [!from], stopping after a full sweep, or after [chunk] columns once
      a candidate exists; returns the column with the most negative [d]
      (strictly below the best so far under [compare]; ties keep the
      first), or -1, and leaves [from] where the scan stopped. *)

  val price_bland : t array -> bool array -> int
  (** The first non-basic column of [d] whose value is below [zero] under
      [compare], or -1. *)

  val update_duals :
    t -> t array -> tracker -> t array -> t rows -> bool array -> t array -> t array -> tracker ->
    unit
  (** [update_duals dq rho tr y rows in_basis d alpha atr] applies a
      pivot's dual update from the pivot row [rho] = e_r^T B^-1 of the
      new basis (tracked by [tr]) and the entering reduced cost [dq]:
      y.(i) <- y.(i) + dq * rho.(i), and for every non-basic column j,
      alpha_j = rho^T a_j through the row-wise copy, d.(j) <-
      d.(j) - dq * alpha_j; rows whose [rho.(i)] [is_zero] are skipped.
      [alpha] (all zero) and its tracker [atr] (empty) are workspaces
      as long as [d], and are left that way. *)

  val gather : t array -> int array -> t array -> unit
  (** [gather dst idx src] sets [dst.(i) <- src.(idx.(i))] for every [i]
      of [dst]. *)
end

module Rat_field : FIELD with type t = Rat.t = struct
  type t = Rat.t

  let zero = Rat.zero
  let one = Rat.one
  let of_rat x = x
  let to_float = Rat.to_float
  let add = Rat.add
  let sub = Rat.sub
  let mul = Rat.mul
  let div = Rat.div
  let neg = Rat.neg
  let compare = Rat.compare
  let is_zero = Rat.is_zero
  let pp = Rat.pp
  let minus_one = Rat.neg Rat.one

  let load_tracked (ri : int array) (rv : t array) (x : t array) tr =
    for q = 0 to Array.length ri - 1 do
      let i = ri.(q) in
      touch tr i;
      x.(i) <- rv.(q)
    done

  let eta_tracked (f : t etas) t (x : t array) tr =
    let xr = x.(f.er.(t)) in
    if not (is_zero xr) then begin
      let piv = div xr f.epiv.(t) in
      x.(f.er.(t)) <- piv;
      for k = f.start.(t) to f.start.(t + 1) - 1 do
        let i = f.ei.(k) in
        touch tr i;
        x.(i) <- sub x.(i) (mul f.ev.(k) piv)
      done
    end

  let ftran (f : t etas) (x : t array) =
    for t = 0 to f.n - 1 do
      let xr = x.(f.er.(t)) in
      if not (is_zero xr) then begin
        let piv = div xr f.epiv.(t) in
        x.(f.er.(t)) <- piv;
        for k = f.start.(t) to f.start.(t + 1) - 1 do
          let i = f.ei.(k) in
          x.(i) <- sub x.(i) (mul f.ev.(k) piv)
        done
      end
    done

  let btran_step (f : t etas) t (y : t array) =
    let s = ref y.(f.er.(t)) in
    for k = f.start.(t) to f.start.(t + 1) - 1 do
      let yi = y.(f.ei.(k)) in
      if not (is_zero yi) then s := sub !s (mul yi f.ev.(k))
    done;
    let v = div !s f.epiv.(t) in
    y.(f.er.(t)) <- v;
    v

  let btran (f : t etas) (y : t array) =
    for t = f.n - 1 downto 0 do
      ignore (btran_step f t y)
    done

  let btran_eta_tracked f t y tr =
    touch tr f.er.(t);
    if is_zero (btran_step f t y) then 0 else 2

  let push_tracked (f : t etas) ~skip_identity r (x : t array) tr =
    reserve f zero tr.n_nz;
    let base = f.start.(f.n) in
    let w = ref base in
    for q = 0 to tr.n_nz - 1 do
      let i = tr.nzl.(q) in
      if i <> r && not (is_zero x.(i)) then begin
        f.ei.(!w) <- i;
        f.ev.(!w) <- x.(i);
        incr w
      end
    done;
    if skip_identity && !w = base && compare x.(r) one = 0 then false
    else begin
      f.er.(f.n) <- r;
      f.epiv.(f.n) <- x.(r);
      f.n <- f.n + 1;
      f.start.(f.n) <- !w;
      true
    end

  let choose_pivot (x : t array) tr (row_done : bool array) =
    let r = ref (-1) in
    let best = ref 0.0 in
    for q = 0 to tr.n_nz - 1 do
      let i = tr.nzl.(q) in
      if (not row_done.(i)) && not (is_zero x.(i)) then begin
        let v = x.(i) in
        let mag =
          if compare v one = 0 || compare v minus_one = 0 then Float.infinity
          else Float.abs (to_float v)
        in
        if !r < 0 || mag > !best then begin
          r := i;
          best := mag
        end
      end
    done;
    !r

  let ratio_test (w : t array) tr (x_b : t array) (basis : int array) bland =
    let leave = ref (-1) in
    let best = ref zero in
    for q = 0 to tr.n_nz - 1 do
      let i = tr.nzl.(q) in
      let entry = w.(i) in
      if compare entry zero > 0 then begin
        let ratio = div x_b.(i) entry in
        let better =
          !leave < 0
          || compare ratio !best < 0
          || (compare ratio !best = 0
              &&
              if bland then basis.(i) < basis.(!leave)
              else Float.abs (to_float entry) > Float.abs (to_float w.(!leave)))
        in
        if better then begin
          leave := i;
          best := ratio
        end
      end
    done;
    !leave

  let pivot_primal (x_b : t array) (w : t array) tr r =
    let theta = div x_b.(r) w.(r) in
    if not (is_zero theta) then
      for q = 0 to tr.n_nz - 1 do
        let i = tr.nzl.(q) in
        if i <> r && not (is_zero w.(i)) then x_b.(i) <- sub x_b.(i) (mul w.(i) theta)
      done;
    x_b.(r) <- theta;
    theta

  let reduced_cost (c : t array) cols (y : t array) j =
    let ri, rv = cols.(j) in
    let s = ref c.(j) in
    for q = 0 to Array.length ri - 1 do
      let yi = y.(ri.(q)) in
      if not (is_zero yi) then s := sub !s (mul yi rv.(q))
    done;
    !s

  let reduced_costs c cols y (in_basis : bool array) (d : t array) =
    for j = 0 to Array.length d - 1 do
      d.(j) <- (if in_basis.(j) then zero else reduced_cost c cols y j)
    done

  let price_dantzig (d : t array) (in_basis : bool array) chunk from =
    let ncols = Array.length d in
    let best_j = ref (-1) in
    let best_d = ref zero in
    let examined = ref 0 in
    let j = ref !from in
    while not (!examined >= ncols || (!best_j >= 0 && !examined >= chunk)) do
      let jj = !j in
      if not in_basis.(jj) then begin
        let dj = d.(jj) in
        if compare dj zero < 0 && (!best_j < 0 || compare dj !best_d < 0) then begin
          best_j := jj;
          best_d := dj
        end
      end;
      incr examined;
      j := if jj + 1 >= ncols then 0 else jj + 1
    done;
    from := !j;
    !best_j

  let price_bland (d : t array) (in_basis : bool array) =
    let ncols = Array.length d in
    let j = ref 0 in
    while !j < ncols && (in_basis.(!j) || not (compare d.(!j) zero < 0)) do
      incr j
    done;
    if !j < ncols then !j else -1

  let update_duals dq (rho : t array) tr (y : t array) (rows : t rows) (in_basis : bool array)
      (d : t array) (alpha : t array) atr =
    for q = 0 to tr.n_nz - 1 do
      let i = tr.nzl.(q) in
      let ri = rho.(i) in
      if not (is_zero ri) then begin
        y.(i) <- add y.(i) (mul dq ri);
        for k = rows.rstart.(i) to rows.rstart.(i + 1) - 1 do
          let j = rows.rcol.(k) in
          if not in_basis.(j) then begin
            touch atr j;
            alpha.(j) <- add alpha.(j) (mul ri rows.rval.(k))
          end
        done
      end
    done;
    for q = 0 to atr.n_nz - 1 do
      let j = atr.nzl.(q) in
      d.(j) <- sub d.(j) (mul dq alpha.(j));
      alpha.(j) <- zero;
      atr.mark.(j) <- false
    done;
    atr.n_nz <- 0

  let gather (dst : t array) (idx : int array) (src : t array) =
    for i = 0 to Array.length dst - 1 do
      dst.(i) <- src.(idx.(i))
    done
end

module Float_field : FIELD with type t = float = struct
  type t = float

  let eps = 1e-9
  let zero = 0.0
  let one = 1.0
  let of_rat = Rat.to_float
  let to_float x = x
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let neg x = -.x
  let[@inline] compare a b = if Float.abs (a -. b) <= eps then 0 else Float.compare a b
  let is_zero x = Float.abs x <= eps
  let pp fmt x = Format.fprintf fmt "%.12g" x

  (* The kernels below spell [is_zero], [sub], [mul] and [div] out as
     float primitives, and [compare] is inlined, so every value stays
     unboxed in registers and flat float arrays. *)

  let load_tracked (ri : int array) (rv : float array) (x : float array) tr =
    for q = 0 to Array.length ri - 1 do
      let i = ri.(q) in
      touch tr i;
      x.(i) <- rv.(q)
    done

  let eta_tracked (f : t etas) t (x : float array) tr =
    let xr = x.(f.er.(t)) in
    if not (Float.abs xr <= eps) then begin
      let piv = xr /. f.epiv.(t) in
      x.(f.er.(t)) <- piv;
      for k = f.start.(t) to f.start.(t + 1) - 1 do
        let i = f.ei.(k) in
        touch tr i;
        x.(i) <- x.(i) -. (f.ev.(k) *. piv)
      done
    end

  let ftran (f : t etas) (x : float array) =
    for t = 0 to f.n - 1 do
      let xr = x.(f.er.(t)) in
      if not (Float.abs xr <= eps) then begin
        let piv = xr /. f.epiv.(t) in
        x.(f.er.(t)) <- piv;
        for k = f.start.(t) to f.start.(t + 1) - 1 do
          let i = f.ei.(k) in
          x.(i) <- x.(i) -. (f.ev.(k) *. piv)
        done
      end
    done

  let btran (f : t etas) (y : float array) =
    for t = f.n - 1 downto 0 do
      let s = ref y.(f.er.(t)) in
      for k = f.start.(t) to f.start.(t + 1) - 1 do
        let yi = y.(f.ei.(k)) in
        if not (Float.abs yi <= eps) then s := !s -. (yi *. f.ev.(k))
      done;
      y.(f.er.(t)) <- !s /. f.epiv.(t)
    done

  let btran_eta_tracked (f : t etas) t (y : float array) tr =
    let r = f.er.(t) in
    touch tr r;
    let s = ref y.(r) in
    for k = f.start.(t) to f.start.(t + 1) - 1 do
      let yi = y.(f.ei.(k)) in
      if not (Float.abs yi <= eps) then s := !s -. (yi *. f.ev.(k))
    done;
    let v = !s /. f.epiv.(t) in
    y.(r) <- v;
    if not (Float.abs v <= eps) then 2 else if v <> 0.0 then 1 else 0

  let push_tracked (f : t etas) ~skip_identity r (x : float array) tr =
    reserve f 0.0 tr.n_nz;
    let base = f.start.(f.n) in
    let w = ref base in
    for q = 0 to tr.n_nz - 1 do
      let i = tr.nzl.(q) in
      if i <> r && not (Float.abs x.(i) <= eps) then begin
        f.ei.(!w) <- i;
        f.ev.(!w) <- x.(i);
        incr w
      end
    done;
    if skip_identity && !w = base && compare x.(r) 1.0 = 0 then false
    else begin
      f.er.(f.n) <- r;
      f.epiv.(f.n) <- x.(r);
      f.n <- f.n + 1;
      f.start.(f.n) <- !w;
      true
    end

  let choose_pivot (x : float array) tr (row_done : bool array) =
    let r = ref (-1) in
    let best = ref 0.0 in
    for q = 0 to tr.n_nz - 1 do
      let i = tr.nzl.(q) in
      if (not row_done.(i)) && not (Float.abs x.(i) <= eps) then begin
        let v = x.(i) in
        let mag =
          if compare v 1.0 = 0 || compare v (-1.0) = 0 then Float.infinity
          else Float.abs v
        in
        if !r < 0 || mag > !best then begin
          r := i;
          best := mag
        end
      end
    done;
    !r

  let ratio_test (w : float array) tr (x_b : float array) (basis : int array) bland =
    let leave = ref (-1) in
    let best = ref 0.0 in
    for q = 0 to tr.n_nz - 1 do
      let i = tr.nzl.(q) in
      let entry = w.(i) in
      if compare entry 0.0 > 0 then begin
        let ratio = x_b.(i) /. entry in
        let better =
          !leave < 0
          || compare ratio !best < 0
          || (compare ratio !best = 0
              &&
              if bland then basis.(i) < basis.(!leave)
              else Float.abs entry > Float.abs w.(!leave))
        in
        if better then begin
          leave := i;
          best := ratio
        end
      end
    done;
    !leave

  let pivot_primal (x_b : float array) (w : float array) tr r =
    let theta = x_b.(r) /. w.(r) in
    if not (Float.abs theta <= eps) then
      for q = 0 to tr.n_nz - 1 do
        let i = tr.nzl.(q) in
        if i <> r && not (Float.abs w.(i) <= eps) then x_b.(i) <- x_b.(i) -. (w.(i) *. theta)
      done;
    x_b.(r) <- theta;
    theta

  (* Inlined into [reduced_costs], where a call would box each result. *)
  let[@inline] reduced_cost (c : float array) cols (y : float array) j =
    let (ri : int array), (rv : float array) = cols.(j) in
    let s = ref c.(j) in
    for q = 0 to Array.length ri - 1 do
      let yi = y.(ri.(q)) in
      if not (Float.abs yi <= eps) then s := !s -. (yi *. rv.(q))
    done;
    !s

  let reduced_costs c cols y (in_basis : bool array) (d : float array) =
    for j = 0 to Array.length d - 1 do
      d.(j) <- (if in_basis.(j) then 0.0 else reduced_cost c cols y j)
    done

  let price_dantzig (d : float array) (in_basis : bool array) chunk from =
    let ncols = Array.length d in
    let best_j = ref (-1) in
    let best_d = ref 0.0 in
    let examined = ref 0 in
    let j = ref !from in
    while not (!examined >= ncols || (!best_j >= 0 && !examined >= chunk)) do
      let jj = !j in
      if not in_basis.(jj) then begin
        let dj = d.(jj) in
        if compare dj 0.0 < 0 && (!best_j < 0 || compare dj !best_d < 0) then begin
          best_j := jj;
          best_d := dj
        end
      end;
      incr examined;
      j := if jj + 1 >= ncols then 0 else jj + 1
    done;
    from := !j;
    !best_j

  let price_bland (d : float array) (in_basis : bool array) =
    let ncols = Array.length d in
    let j = ref 0 in
    while !j < ncols && (in_basis.(!j) || not (compare d.(!j) 0.0 < 0)) do
      incr j
    done;
    if !j < ncols then !j else -1

  let update_duals dq (rho : float array) tr (y : float array) (rows : float rows)
      (in_basis : bool array) (d : float array) (alpha : float array) atr =
    for q = 0 to tr.n_nz - 1 do
      let i = tr.nzl.(q) in
      let ri = rho.(i) in
      if not (Float.abs ri <= eps) then begin
        y.(i) <- y.(i) +. (dq *. ri);
        for k = rows.rstart.(i) to rows.rstart.(i + 1) - 1 do
          let j = rows.rcol.(k) in
          if not in_basis.(j) then begin
            touch atr j;
            alpha.(j) <- alpha.(j) +. (ri *. rows.rval.(k))
          end
        done
      end
    done;
    for q = 0 to atr.n_nz - 1 do
      let j = atr.nzl.(q) in
      d.(j) <- d.(j) -. (dq *. alpha.(j));
      alpha.(j) <- 0.0;
      atr.mark.(j) <- false
    done;
    atr.n_nz <- 0

  let gather (dst : float array) (idx : int array) (src : float array) =
    for i = 0 to Array.length dst - 1 do
      dst.(i) <- src.(idx.(i))
    done
end
