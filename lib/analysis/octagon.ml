(* Octagon domain as a coherent difference-bound matrix.

   Encoding (Mine): variable [v_k] becomes two indices, [2k] for [+v_k]
   and [2k+1] for [-v_k]; [bar i = i lxor 1].  [m.(i * nn + j)] is an
   upper bound on [x_j - x_i] where [x_2k = v_k, x_2k+1 = -v_k], so

     v_k <= c         is  m(2k+1, 2k)  <= 2c
     v_k >= c         is  m(2k, 2k+1)  <= -2c
     v_a - v_b <= c   is  m(2b, 2a)    <= c
     v_a + v_b <= c   is  m(2b+1, 2a)  <= c
     -v_a - v_b <= c  is  m(2b, 2a+1)  <= c

   Coherence [m(i, j) = m(bar j, bar i)] is maintained by writing both
   mirror entries on every store.

   Soundness note: every entry is an upper bound derived from sound
   constraints by min-updates, so an under-closed matrix is still a
   sound (merely less precise) octagon, and emptiness that escapes
   detection only costs precision.  This is what makes the cheap
   incremental closure below safe: full Floyd-Warshall is only needed
   for precision after {!widen}.

   Fixpoint flag: [fix] holds when the matrix is closed in exact
   arithmetic, [m(i,k) + m(k,j) >= m(i,j)] for every [i, k, j] (so no
   pivot lowers any entry: [add_up] never lands below the exact sum).
   A constraint add on such a matrix runs restricted pivots (see
   [fw_pivot]).  The flag is kept only where that closedness is
   proven:
   - [create] is closed;
   - Floyd-Warshall over the indices of the new edges, on a closed
     matrix, closes it, and strengthening a closed coherent matrix
     keeps it closed (Mine), provided every sum involved is exact:
     the pivots report each sum they compute, and [strengthen] checks
     that every pair of finite unary edges adds exactly; a pair it
     skips was bounded by the same (exact) sum on an earlier pass;
   - a full [close] under the same conditions;
   - [shift] with exact sums is a change of variables;
   - [forget] and pointwise max ([join_inplace]) preserve closedness.
   Integral tightening, [constrain_raw] (when they lower an entry) and
   [widen] break it. *)

type t = {
  n : int;  (* variables *)
  nn : int;  (* matrix side = 2n *)
  m : float array;  (* nn * nn, row-major *)
  ud : float array;
      (* unary edges [m(i, bar i)] as the last strengthening pass saw
         them; [nan] where unknown (see [strengthen]) *)
  ints : bool array;
  mutable bot : bool;
  mutable fix : bool;  (* closed in exact arithmetic; see above *)
}

(* Deterministic work counters: closures run, edge stores attempted and
   how many of them changed nothing, and the inner-loop cells visited by
   Floyd-Warshall pivots and by strengthening passes. *)
let tel_closures = Telemetry.Counter.make "analysis.oct.closures"
let tel_edges = Telemetry.Counter.make "analysis.oct.edges"
let tel_noop_edges = Telemetry.Counter.make "analysis.oct.noop_edges"
let tel_pivot_cells = Telemetry.Counter.make "analysis.oct.pivot_cells"
let tel_strengthen_cells = Telemetry.Counter.make "analysis.oct.strengthen_cells"

(* Effective (non-noop) adds, by the pivots they ran: restricted on a
   matrix with the fixpoint flag, full otherwise. *)
let tel_restricted_adds = Telemetry.Counter.make "analysis.oct.restricted_adds"
let tel_full_adds = Telemetry.Counter.make "analysis.oct.full_adds"

(* Matrices allocated: by [create] and [copy], not by [copy_into]. *)
let tel_matrices = Telemetry.Counter.make "analysis.oct.matrices"

let big = 1e15  (* float-exact integer window; see Analyzer [legal_num] *)
let bar i = i lxor 1

(* Directed upward rounding.  Matrix entries are upper bounds, but
   round-to-nearest addition can land {e below} the exact sum (error up
   to half an ulp), and Floyd-Warshall min-updates then propagate the
   deficit -- on consistent real-valued pins (e.g. a state variable held
   at 12.6) closure manufactures a ~1e-15 negative cycle and a spurious
   bottom.  Bumping every inexact sum one ulp up restores the invariant:
   [succ (round (a + b)) >= a + b] always.  Doubling and halving are
   exact in binary floats, so only sums need the bump.  The 2Sum check
   below keeps exact sums exact (its correction terms vanish iff the
   rounded sum equals the real one), so integer-valued edges -- where
   every relational fact this analyzer records lives -- never drift.
   Inlined so the closure loops keep their floats unboxed. *)
let[@inline] exact_sum a b s = a -. (s -. b) = 0.0 && b -. (s -. a) = 0.0

let[@inline] add_up a b =
  let s = a +. b in
  if exact_sum a b s then s else Float.succ s

let create ~ints =
  let n = Array.length ints in
  let nn = 2 * n in
  let m = Array.make (max 1 (nn * nn)) infinity in
  for i = 0 to nn - 1 do
    m.(i * nn + i) <- 0.0
  done;
  Telemetry.Counter.incr tel_matrices;
  { n; nn; m; ud = Array.make nn nan; ints; bot = false; fix = true }

let copy t =
  Telemetry.Counter.incr tel_matrices;
  { t with m = Array.copy t.m; ud = Array.copy t.ud }

let copy_into ~src ~dst =
  if dst.n <> src.n || (dst.ints != src.ints && dst.ints <> src.ints) then
    invalid_arg "Octagon.copy_into: different variables";
  Array.blit src.m 0 dst.m 0 (Array.length src.m);
  Array.blit src.ud 0 dst.ud 0 src.nn;
  dst.bot <- src.bot;
  dst.fix <- src.fix

let is_bottom t = t.bot

(* ------------------------------------------------------------------ *)
(* Closure                                                             *)

(* Index scratch for the kernels below, one buffer per domain: the
   finite and the marked columns of a pivot row, or the finite and the
   changed unary indices of a strengthening pass. *)
let scratch_key = Domain.DLS.new_key (fun () -> ref [||])

let scratch len =
  let r = Domain.DLS.get scratch_key in
  if Array.length !r < len then r := Array.make len 0;
  !r

(* Marks of a restricted add, one bit per entry ([i * nn + j]) for the
   entries lowered during the add; one buffer per domain, all zero
   between adds. *)
let marks_key = Domain.DLS.new_key (fun () -> ref Bytes.empty)
let mark_bytes nn = ((nn * nn) + 7) lsr 3

let marks nn =
  let r = Domain.DLS.get marks_key in
  if Bytes.length !r < mark_bytes nn then r := Bytes.make (mark_bytes nn) '\000';
  !r

let[@inline] marked mk p =
  Char.code (Bytes.unsafe_get mk (p lsr 3)) land (1 lsl (p land 7)) <> 0

let[@inline] mark mk p =
  let b = p lsr 3 in
  Bytes.unsafe_set mk b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get mk b) lor (1 lsl (p land 7))))

let unmark mk nn = Bytes.fill mk 0 (mark_bytes nn) '\000'

let check_diag t =
  let nn = t.nn in
  (try
     for i = 0 to nn - 1 do
       if t.m.((i * nn) + i) < 0.0 then raise Exit
     done
   with Exit -> t.bot <- true);
  ()

(* One strengthening pass: m(i,j) <- min m(i,j) ((m(i,i') + m(j',j)) / 2).
   A pass never moves a unary edge (for j = bar i the candidate is
   m(i,i') itself), so every pair (i, j) is updated independently from
   the row's unary edge [u i = m(i, bar i)] and the column's
   [m(bar j, j) = u (bar j)].  After a pass every such pair satisfies
   [m(i,j) <= add_up (u i) (u (bar j)) / 2], and since every other
   operation except [forget], [shift], [join_inplace] and [widen] only
   lowers entries, the bound keeps holding until [u i] or [u (bar j)]
   moves.
   [ud] records the unary edges the last pass saw, so a pass only has
   to visit the rows [i] and the columns [bar i] whose unary edge
   differs from [ud.(i)], each against the finite unary edges; every
   pair it skips is one where the full pass would find nothing lower.
   Operations that can raise an entry reset the affected [ud] slots to
   [nan], which differs from every value.

   Returns whether every pair of finite unary edges adds exactly, the
   pairs the pass skips included: scaled by the power of two [2^s] that
   brings the largest magnitude below [2^51], each edge must be an
   integer, so a sum of two is an integer below [2^52] (times [2^-s]). *)
let strengthen t =
  let nn = t.nn and m = t.m and ud = t.ud in
  let idx = scratch (2 * nn) in
  (* idx.(0 .. nd-1): finite unary edges; idx.(nn .. nn+nc-1): changed *)
  let nd = ref 0 and nc = ref 0 and mx = ref 0.0 in
  for i = 0 to nn - 1 do
    let u = m.((i * nn) + bar i) in
    if u < infinity then begin
      idx.(!nd) <- i;
      incr nd;
      if Float.abs u > !mx then mx := Float.abs u
    end;
    if u <> ud.(i) then begin
      idx.(nn + !nc) <- i;
      incr nc
    end
  done;
  let nd = !nd and nc = !nc in
  let exact = ref true in
  if nd > 0 then begin
    (* [!mx < 2^e], from the biased exponent (also for 0 and subnormals) *)
    let e = ((Int64.to_int (Int64.bits_of_float !mx) lsr 52) land 0x7ff) - 1022 in
    for x = 0 to nd - 1 do
      let r = idx.(x) in
      let v = Float.ldexp m.((r * nn) + bar r) (51 - e) in
      if not (v = Float.trunc v && v -. v = 0.0) then exact := false
    done
  end;
  let cells = ref 0 in
  for c = nn to nn + nc - 1 do
    let i = idx.(c) in
    let di = m.((i * nn) + bar i) in
    if di < infinity then begin
      (* row i against every finite column *)
      let ir = i * nn in
      for x = 0 to nd - 1 do
        let e = idx.(x) in
        let j = bar e in
        let v = add_up di m.((e * nn) + j) /. 2.0 in
        if v < m.(ir + j) then m.(ir + j) <- v
      done;
      (* column bar i against every finite row the loop above skips *)
      let j = bar i in
      for x = 0 to nd - 1 do
        let r = idx.(x) in
        let dr = m.((r * nn) + bar r) in
        if dr = ud.(r) then begin
          let v = add_up dr di /. 2.0 in
          if v < m.((r * nn) + j) then m.((r * nn) + j) <- v
        end
      done;
      cells := !cells + (2 * nd)
    end
  done;
  for c = nn to nn + nc - 1 do
    let i = idx.(c) in
    ud.(i) <- m.((i * nn) + bar i)
  done;
  Telemetry.Counter.add tel_strengthen_cells !cells;
  !exact

(* [m.(e) <- 2 floor (m.(e) / 2)] on a finite entry; returns whether
   that lowered it *)
let floor_even m e =
  let x = m.(e) in
  x < infinity
  &&
  let v = 2.0 *. Float.floor (x /. 2.0) in
  m.(e) <- v;
  v <> x

(* integral tightening of the unary edges of int variables; returns
   whether it lowered one *)
let tighten_ints t =
  let nn = t.nn and m = t.m in
  let moved = ref false in
  for k = 0 to t.n - 1 do
    if t.ints.(k) then begin
      let hi = floor_even m ((((2 * k) + 1) * nn) + (2 * k)) in
      let lo = floor_even m ((2 * k * nn) + (2 * k) + 1) in
      if hi || lo then moved := true
    end
  done;
  !moved

(* Floyd-Warshall pivot k.  An infinite m(i,k) or m(k,j) stays infinite
   during the pivot (entries only fall, and an infinite one is never
   added), so the finite columns of row k are collected once and each
   finite row walks only those, in ascending order, reading every entry
   fresh: the same updates as the full row-by-row loop.

   [restricted] runs the pivot inside an add on a matrix with the
   fixpoint flag, and [mk] marks every entry lowered since (see
   [marks]).  An update of (i, j) whose legs (i, k) and (k, j) are both
   unmarked reads the values of the closed matrix, where
   [m(i,k) + m(k,j) >= m(i,j)], so it lowers nothing.  A row whose
   m(i,k) is marked therefore walks every finite column of row k, and
   any other finite row only the marked ones.  With m(k,k) = 0 row k
   and column k do not move during the pivot, so the marks read are
   those of the full loop at the same point, and the visited updates
   are its updates in the same order.  With m(k,k) < 0 (the add is on
   its way to bottom) every row walks every finite column.  Entries the
   pivot lowers are marked.

   Returns whether every sum the pivot computed was exact. *)
let fw_pivot t ~restricted mk k =
  let nn = t.nn and m = t.m in
  let idx = scratch (2 * nn) in
  (* idx.(0 .. nf-1): finite columns of row k; idx.(nn ..): marked ones *)
  let kr = k * nn in
  let nf = ref 0 and nmk = ref 0 in
  for j = 0 to nn - 1 do
    if m.(kr + j) < infinity then begin
      idx.(!nf) <- j;
      incr nf;
      if restricted && marked mk (kr + j) then begin
        idx.(nn + !nmk) <- j;
        incr nmk
      end
    end
  done;
  let nf = !nf and nmk = !nmk in
  let all = (not restricted) || m.(kr + k) < 0.0 in
  let exact = ref true and cells = ref 0 in
  for i = 0 to nn - 1 do
    let ik = m.((i * nn) + k) in
    if ik < infinity then begin
      let ir = i * nn in
      let every = all || marked mk (ir + k) in
      let lo = if every then 0 else nn in
      let hi = if every then nf else nn + nmk in
      cells := !cells + (hi - lo);
      for c = lo to hi - 1 do
        let j = idx.(c) in
        let kj = m.(kr + j) in
        let s = ik +. kj in
        let v =
          if exact_sum ik kj s then s
          else begin
            exact := false;
            Float.succ s
          end
        in
        if v < m.(ir + j) then begin
          m.(ir + j) <- v;
          if restricted then mark mk (ir + j)
        end
      done
    end
  done;
  Telemetry.Counter.add tel_pivot_cells !cells;
  !exact

let close t =
  if not t.bot then begin
    Telemetry.Counter.incr tel_closures;
    let exact = ref true in
    for k = 0 to t.nn - 1 do
      if not (fw_pivot t ~restricted:false Bytes.empty k) then exact := false
    done;
    let sx = strengthen t in
    let moved = tighten_ints t in
    ignore (strengthen t : bool);
    check_diag t;
    t.fix <- !exact && sx && not moved
  end

(* ------------------------------------------------------------------ *)
(* Constraint adds (incremental closure over the touched pivots)       *)

let legal c = Float.is_nan c = false && Float.abs c <= 2.0 *. big

(* store edge (i, j) <= c and its mirror, then re-close around the
   touched indices: restricted pivots while the fixpoint flag holds *)
let add_edge t i j c =
  Telemetry.Counter.incr tel_edges;
  let nn = t.nn and m = t.m in
  if t.bot || (not (legal c)) || c >= m.((i * nn) + j) then
    Telemetry.Counter.incr tel_noop_edges
  else begin
    let restricted = t.fix in
    let mk = if restricted then marks nn else Bytes.empty in
    Telemetry.Counter.incr
      (if restricted then tel_restricted_adds else tel_full_adds);
    m.((i * nn) + j) <- c;
    m.((bar j * nn) + bar i) <- c;
    if restricted then begin
      mark mk ((i * nn) + j);
      mark mk ((bar j * nn) + bar i)
    end;
    let exact = fw_pivot t ~restricted mk i in
    let exact = fw_pivot t ~restricted mk j && exact in
    let exact =
      if i = bar j then exact
      else
        let exact = fw_pivot t ~restricted mk (bar i) && exact in
        fw_pivot t ~restricted mk (bar j) && exact
    in
    if restricted then unmark mk nn;
    let sx = strengthen t in
    let moved = tighten_ints t in
    check_diag t;
    t.fix <- restricted && exact && sx && not moved
  end

let add_upper t k c = add_edge t ((2 * k) + 1) (2 * k) (2.0 *. c)
let add_lower t k c = add_edge t (2 * k) ((2 * k) + 1) (-2.0 *. c)
let add_diff t a b c = if a <> b then add_edge t (2 * b) (2 * a) c

let meet_interval t k ~lo ~hi =
  if hi < infinity then add_upper t k hi;
  if lo > neg_infinity then add_lower t k lo

(* raw min-store of unary bounds, no re-closure: bulk seeding calls
   this per variable and then runs one [close] *)
let constrain_raw t k ~lo ~hi =
  let nn = t.nn and m = t.m in
  if hi < infinity && legal (2.0 *. hi) then begin
    let e = (((2 * k) + 1) * nn) + (2 * k) in
    if 2.0 *. hi < m.(e) then begin
      m.(e) <- 2.0 *. hi;
      t.fix <- false
    end
  end;
  if lo > neg_infinity && legal (2.0 *. lo) then begin
    let e = (2 * k * nn) + (2 * k) + 1 in
    if -2.0 *. lo < m.(e) then begin
      m.(e) <- -2.0 *. lo;
      t.fix <- false
    end
  end

(* ------------------------------------------------------------------ *)
(* Transfer                                                            *)

let forget t k =
  let nn = t.nn and m = t.m in
  let a = 2 * k and b = (2 * k) + 1 in
  for j = 0 to nn - 1 do
    m.((a * nn) + j) <- infinity;
    m.((j * nn) + a) <- infinity;
    m.((b * nn) + j) <- infinity;
    m.((j * nn) + b) <- infinity
  done;
  m.((a * nn) + a) <- 0.0;
  m.((b * nn) + b) <- 0.0;
  t.ud.(a) <- nan;
  t.ud.(b) <- nan

(* [m.(e) <- add_up m.(e) d]; returns false when the sum of a finite
   entry rounded ([add_up] keeps an infinite entry infinite) *)
let[@inline] nudge m e d =
  let x = m.(e) in
  let s = x +. d in
  if exact_sum x d s then begin
    m.(e) <- s;
    true
  end
  else begin
    m.(e) <- Float.succ s;
    x = infinity
  end

let shift t k c =
  if (not t.bot) && legal c && c <> 0.0 then begin
    let nn = t.nn and m = t.m in
    let a = 2 * k and b = (2 * k) + 1 in
    let nc = -.c in
    let exact = ref true in
    for j = 0 to nn - 1 do
      let e1 = nudge m ((a * nn) + j) nc in
      let e2 = nudge m ((j * nn) + a) c in
      let e3 = nudge m ((b * nn) + j) c in
      let e4 = nudge m ((j * nn) + b) nc in
      if not (e1 && e2 && e3 && e4) then exact := false
    done;
    (* infinities survive the +-c arithmetic; the diagonal cancels *)
    m.((a * nn) + a) <- 0.0;
    m.((b * nn) + b) <- 0.0;
    t.ud.(a) <- nan;
    t.ud.(b) <- nan;
    t.fix <- t.fix && !exact
  end

let assign_copy t ~dst ~src ~offset =
  if dst <> src then begin
    forget t dst;
    add_diff t dst src offset;
    add_diff t src dst (-.offset)
  end

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let bounds t k =
  let nn = t.nn in
  let hi = t.m.((((2 * k) + 1) * nn) + (2 * k)) /. 2.0 in
  let lo = -.(t.m.((2 * k * nn) + (2 * k) + 1) /. 2.0) in
  (lo, hi)

let diff_bounds t a b =
  let nn = t.nn in
  let hi = t.m.((2 * b * nn) + (2 * a)) in
  let lo = -.t.m.((2 * a * nn) + (2 * b)) in
  (lo, hi)

let sum_bounds t a b =
  let nn = t.nn in
  let hi = t.m.((((2 * b) + 1) * nn) + (2 * a)) in
  let lo = -.t.m.((2 * a * nn) + (2 * b) + 1) in
  (lo, hi)

(* ------------------------------------------------------------------ *)
(* Lattice                                                             *)

(* Both return whether [a] rose: an entry grew, or [a] stopped being
   bottom. *)
let join_inplace a b =
  if a.bot then begin
    copy_into ~src:b ~dst:a;
    not b.bot
  end
  else if b.bot then false
  else begin
    let rose = ref false in
    for i = 0 to (a.nn * a.nn) - 1 do
      if b.m.(i) > a.m.(i) then begin
        a.m.(i) <- b.m.(i);
        rose := true
      end
    done;
    Array.fill a.ud 0 a.nn nan;
    a.fix <- a.fix && b.fix;
    !rose
  end

let widen a b =
  if a.bot then begin
    copy_into ~src:b ~dst:a;
    not b.bot
  end
  else if b.bot then false
  else begin
    let rose = ref false in
    for i = 0 to (a.nn * a.nn) - 1 do
      if b.m.(i) > a.m.(i) then begin
        a.m.(i) <- infinity;
        rose := true
      end
    done;
    Array.fill a.ud 0 a.nn nan;
    a.fix <- false;
    !rose
  end
