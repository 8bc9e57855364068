(* Number fields the simplex solver can pivot over.

   The solver is written as a functor so the same code runs over exact
   rationals (reference, used to certify stall-time optimality claims) and
   over floats (fast path; see the hybrid driver in {!Simplex.solve_exact}).
   The only subtlety is [is_zero]/sign tests: exact for rationals, but
   tolerance-based for floats.

   Besides scalar arithmetic, a field supplies the per-element array
   kernels of the revised simplex ({!Revised.Make}): eta-file FTRAN and
   BTRAN, the sparse reduced-cost dot product and the basic-cost gather.
   Functor code cannot be specialized to [float] by this toolchain (no
   flambda, and cross-module inlining is off under [-opaque]), so each
   [F.sub]/[F.mul] call and each read from an [F.t array] inside
   [Revised.Make] boxes a float.  The float field runs these loops over
   unboxed [float array]s instead; the rational field runs the very same
   loops over [Rat.t].  Both perform the same operations in the same
   order as the generic loops they replace.  The eta file and nonzero
   tracker the kernels work on are defined here, together with the
   hypersparse FTRAN order that basis factorization uses. *)

(* One elementary pivot of a product-form inverse.  Applying the eta to a
   vector x realizes the Gauss-Jordan step that turned the pivot column
   into the [er]-th unit vector: x.er <- x.er / epiv, then
   x.i <- x.i - ev_i * x.er for the off-pivot nonzeros. *)
type 'a eta = {
  er : int;  (* pivot row *)
  ei : int array;  (* off-pivot rows with nonzero entries *)
  ev : 'a array;  (* matching entries of the incoming column *)
  epiv : 'a;  (* pivot entry *)
}

(* Sparsity tracker for one work vector: the positions written so far (a
   superset of its nonzeros), in first-write order.  Every write to a
   tracked vector goes through [touch] first. *)
type tracker = {
  mark : bool array;
  nzl : int array;  (* positions written, first n_nz entries *)
  mutable n_nz : int;
}

let touch tr i =
  if not tr.mark.(i) then begin
    tr.mark.(i) <- true;
    tr.nzl.(tr.n_nz) <- i;
    tr.n_nz <- tr.n_nz + 1
  end

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

(* Hypersparse tracked FTRAN over an eta file whose etas all have distinct
   pivot rows ([eta_of_row.(r)] is the eta pivoting on row r, or -1), as
   in one basis factorization.  [step] is a field's [eta_tracked].

   An eta changes x only if x.(er) is nonzero when its turn comes, and er
   can only be nonzero if it was loaded or filled by an earlier eta.  So a
   min-heap of eta indices, seeded with the etas of the tracked rows and
   fed the later etas of the rows each step touches for the first time,
   pops exactly the etas a full scan in index order would apply, in the
   same order, and the tracker sees the same touches.  The etas it skips
   are those whose pivot row is still untouched, hence exactly zero, when
   their turn comes.  [heap] is a workspace as long as [eta_of_row]. *)
let ftran_hyper step (etas : 'a eta array) (eta_of_row : int array) (heap : int array)
    (x : 'a array) tr =
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
    step etas.(t) x tr;
    for q = fresh to tr.n_nz - 1 do
      let t' = eta_of_row.(tr.nzl.(q)) in
      if t' > t then begin
        heap_push heap !size t';
        incr size
      end
    done
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

  val ftran : t eta array -> int -> t array -> unit
  (** [ftran etas n x] applies [etas.(0) .. etas.(n-1)] forward to [x]
      (x <- B^-1 x), skipping each eta whose pivot-row entry [is_zero]. *)

  val eta_tracked : t eta -> t array -> tracker -> unit
  (** One eta of a tracked FTRAN: a no-op if [x.(er)] [is_zero], else the
      eta's update with every off-pivot row [touch]ed, in [ei] order,
      before it is written. *)

  val ftran_tracked : t eta array -> int -> t array -> tracker -> unit
  (** [eta_tracked] over [etas.(0) .. etas.(n-1)], in index order. *)

  val btran : t eta array -> int -> t array -> unit
  (** [btran etas n y] applies the eta file in reverse (y <- B^-T y);
      entries of [y] that are [is_zero] drop out of each dot product. *)

  val reduced_cost : t array -> (int array * t array) array -> t array -> int -> t
  (** [reduced_cost c cols y j] is the reduced cost of the sparse column
      [cols.(j) = (ri, rv)] under duals [y]: [c.(j) - y.(ri.(q)) * rv.(q)]
      accumulated left to right over the [q] whose [y.(ri.(q))] is not
      [is_zero]. *)

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

  let ftran (etas : t eta array) n (x : t array) =
    for t = 0 to n - 1 do
      let e = etas.(t) in
      let xr = x.(e.er) in
      if not (is_zero xr) then begin
        let piv = div xr e.epiv in
        x.(e.er) <- piv;
        let ei = e.ei and ev = e.ev in
        for q = 0 to Array.length ei - 1 do
          x.(ei.(q)) <- sub x.(ei.(q)) (mul ev.(q) piv)
        done
      end
    done

  let eta_tracked (e : t eta) (x : t array) tr =
    let xr = x.(e.er) in
    if not (is_zero xr) then begin
      let piv = div xr e.epiv in
      x.(e.er) <- piv;
      let ei = e.ei and ev = e.ev in
      for q = 0 to Array.length ei - 1 do
        let i = ei.(q) in
        touch tr i;
        x.(i) <- sub x.(i) (mul ev.(q) piv)
      done
    end

  let ftran_tracked etas n x tr =
    for t = 0 to n - 1 do
      eta_tracked etas.(t) x tr
    done

  let btran (etas : t eta array) n (y : t array) =
    for t = n - 1 downto 0 do
      let e = etas.(t) in
      let s = ref y.(e.er) in
      let ei = e.ei and ev = e.ev in
      for q = 0 to Array.length ei - 1 do
        let yi = y.(ei.(q)) in
        if not (is_zero yi) then s := sub !s (mul yi ev.(q))
      done;
      y.(e.er) <- div !s e.epiv
    done

  let reduced_cost (c : t array) cols (y : t array) j =
    let ri, rv = cols.(j) in
    let s = ref c.(j) in
    for q = 0 to Array.length ri - 1 do
      let yi = y.(ri.(q)) in
      if not (is_zero yi) then s := sub !s (mul yi rv.(q))
    done;
    !s

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
  let compare a b = if Float.abs (a -. b) <= eps then 0 else Float.compare a b
  let is_zero x = Float.abs x <= eps
  let pp fmt x = Format.fprintf fmt "%.12g" x

  (* The kernels below spell [is_zero], [sub], [mul] and [div] out as float
     primitives, so every value stays unboxed in registers and flat float
     arrays. *)

  let ftran (etas : t eta array) n (x : float array) =
    for t = 0 to n - 1 do
      let e = etas.(t) in
      let xr = x.(e.er) in
      if not (Float.abs xr <= eps) then begin
        let piv = xr /. e.epiv in
        x.(e.er) <- piv;
        let ei = e.ei and ev = e.ev in
        for q = 0 to Array.length ei - 1 do
          x.(ei.(q)) <- x.(ei.(q)) -. (ev.(q) *. piv)
        done
      end
    done

  let eta_tracked (e : t eta) (x : float array) tr =
    let xr = x.(e.er) in
    if not (Float.abs xr <= eps) then begin
      let piv = xr /. e.epiv in
      x.(e.er) <- piv;
      let ei = e.ei and ev = e.ev in
      for q = 0 to Array.length ei - 1 do
        let i = ei.(q) in
        touch tr i;
        x.(i) <- x.(i) -. (ev.(q) *. piv)
      done
    end

  let ftran_tracked etas n x tr =
    for t = 0 to n - 1 do
      eta_tracked etas.(t) x tr
    done

  let btran (etas : t eta array) n (y : float array) =
    for t = n - 1 downto 0 do
      let e = etas.(t) in
      let s = ref y.(e.er) in
      let ei = e.ei and ev = e.ev in
      for q = 0 to Array.length ei - 1 do
        let yi = y.(ei.(q)) in
        if not (Float.abs yi <= eps) then s := !s -. (yi *. ev.(q))
      done;
      y.(e.er) <- !s /. e.epiv
    done

  let reduced_cost (c : float array) cols (y : float array) j =
    let (ri : int array), (rv : float array) = cols.(j) in
    let s = ref c.(j) in
    for q = 0 to Array.length ri - 1 do
      let yi = y.(ri.(q)) in
      if not (Float.abs yi <= eps) then s := !s -. (yi *. rv.(q))
    done;
    !s

  let gather (dst : float array) (idx : int array) (src : float array) =
    for i = 0 to Array.length dst - 1 do
      dst.(i) <- src.(idx.(i))
    done
end
