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
   for precision after {!widen}. *)

type t = {
  n : int;  (* variables *)
  nn : int;  (* matrix side = 2n *)
  m : float array;  (* nn * nn, row-major *)
  ud : float array;
      (* unary edges [m(i, bar i)] as the last strengthening pass saw
         them; [nan] where unknown (see [strengthen]) *)
  ints : bool array;
  mutable bot : bool;
}

(* Deterministic work counters: closures run, edge stores attempted and
   how many of them changed nothing, and the inner-loop cells visited by
   Floyd-Warshall pivots and by strengthening passes. *)
let tel_closures = Telemetry.Counter.make "analysis.oct.closures"
let tel_edges = Telemetry.Counter.make "analysis.oct.edges"
let tel_noop_edges = Telemetry.Counter.make "analysis.oct.noop_edges"
let tel_pivot_cells = Telemetry.Counter.make "analysis.oct.pivot_cells"
let tel_strengthen_cells = Telemetry.Counter.make "analysis.oct.strengthen_cells"

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
let[@inline] add_up a b =
  let s = a +. b in
  if a -. (s -. b) = 0.0 && b -. (s -. a) = 0.0 then s else Float.succ s

let create ~ints =
  let n = Array.length ints in
  let nn = 2 * n in
  let m = Array.make (max 1 (nn * nn)) infinity in
  for i = 0 to nn - 1 do
    m.(i * nn + i) <- 0.0
  done;
  { n; nn; m; ud = Array.make nn nan; ints; bot = false }

let copy t = { t with m = Array.copy t.m; ud = Array.copy t.ud }

let equal a b =
  a.n = b.n && a.bot = b.bot && (a.bot || Array.for_all2 ( = ) a.m b.m)

let is_bottom t = t.bot

(* ------------------------------------------------------------------ *)
(* Closure                                                             *)

(* Index scratch for the kernels below, one buffer per domain: the
   finite columns of a pivot row, or the finite and the changed unary
   indices of a strengthening pass. *)
let scratch_key = Domain.DLS.new_key (fun () -> ref [||])

let scratch len =
  let r = Domain.DLS.get scratch_key in
  if Array.length !r < len then r := Array.make len 0;
  !r

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
   operation except [forget], [shift], [join] and [widen] only lowers
   entries, the bound keeps holding until [u i] or [u (bar j)] moves.
   [ud] records the unary edges the last pass saw, so a pass only has
   to visit the rows [i] and the columns [bar i] whose unary edge
   differs from [ud.(i)], each against the finite unary edges; every
   pair it skips is one where the full pass would find nothing lower.
   Operations that can raise an entry reset the affected [ud] slots to
   [nan], which differs from every value. *)
let strengthen t =
  let nn = t.nn and m = t.m and ud = t.ud in
  let idx = scratch (2 * nn) in
  (* idx.(0 .. nd-1): finite unary edges; idx.(nn .. nn+nc-1): changed *)
  let nd = ref 0 and nc = ref 0 in
  for i = 0 to nn - 1 do
    let u = m.((i * nn) + bar i) in
    if u < infinity then begin
      idx.(!nd) <- i;
      incr nd
    end;
    if u <> ud.(i) then begin
      idx.(nn + !nc) <- i;
      incr nc
    end
  done;
  let nd = !nd and nc = !nc in
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
  Telemetry.Counter.add tel_strengthen_cells !cells

(* integral tightening of the unary edges of int variables *)
let tighten_ints t =
  let nn = t.nn and m = t.m in
  for k = 0 to t.n - 1 do
    if t.ints.(k) then begin
      let hi = ((2 * k) + 1) * nn + (2 * k) in
      let lo = (2 * k * nn) + (2 * k) + 1 in
      if m.(hi) < infinity then m.(hi) <- 2.0 *. Float.floor (m.(hi) /. 2.0);
      if m.(lo) < infinity then m.(lo) <- 2.0 *. Float.floor (m.(lo) /. 2.0)
    end
  done

(* Floyd-Warshall pivot k.  An infinite m(i,k) or m(k,j) stays infinite
   during the pivot (entries only fall, and an infinite one is never
   added), so the finite columns of row k are collected once and each
   finite row walks only those, in ascending order, reading every entry
   fresh: the same updates as the full row-by-row loop. *)
let fw_pivot t k =
  let nn = t.nn and m = t.m in
  let cols = scratch nn in
  let kr = k * nn in
  let nc = ref 0 in
  for j = 0 to nn - 1 do
    if m.(kr + j) < infinity then begin
      cols.(!nc) <- j;
      incr nc
    end
  done;
  let nc = !nc in
  let rows = ref 0 in
  for i = 0 to nn - 1 do
    let ik = m.((i * nn) + k) in
    if ik < infinity then begin
      incr rows;
      let ir = i * nn in
      for c = 0 to nc - 1 do
        let j = cols.(c) in
        let v = add_up ik m.(kr + j) in
        if v < m.(ir + j) then m.(ir + j) <- v
      done
    end
  done;
  Telemetry.Counter.add tel_pivot_cells (!rows * nc)

let close t =
  if not t.bot then begin
    Telemetry.Counter.incr tel_closures;
    for k = 0 to t.nn - 1 do
      fw_pivot t k
    done;
    strengthen t;
    tighten_ints t;
    strengthen t;
    check_diag t
  end

(* ------------------------------------------------------------------ *)
(* Constraint adds (incremental closure over the touched pivots)       *)

let legal c = Float.is_nan c = false && Float.abs c <= 2.0 *. big

(* store edge (i, j) <= c and its mirror, then re-close around the
   touched indices *)
let add_edge t i j c =
  Telemetry.Counter.incr tel_edges;
  let nn = t.nn and m = t.m in
  if t.bot || (not (legal c)) || c >= m.((i * nn) + j) then
    Telemetry.Counter.incr tel_noop_edges
  else begin
    m.((i * nn) + j) <- c;
    m.((bar j * nn) + bar i) <- c;
    fw_pivot t i;
    fw_pivot t j;
    if i <> bar j then begin
      fw_pivot t (bar i);
      fw_pivot t (bar j)
    end;
    strengthen t;
    tighten_ints t;
    check_diag t
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
    if 2.0 *. hi < m.(e) then m.(e) <- 2.0 *. hi
  end;
  if lo > neg_infinity && legal (2.0 *. lo) then begin
    let e = (2 * k * nn) + (2 * k) + 1 in
    if -2.0 *. lo < m.(e) then m.(e) <- -2.0 *. lo
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

let shift t k c =
  if (not t.bot) && legal c && c <> 0.0 then begin
    let nn = t.nn and m = t.m in
    let a = 2 * k and b = (2 * k) + 1 in
    for j = 0 to nn - 1 do
      m.((a * nn) + j) <- add_up m.((a * nn) + j) (-.c);
      m.((j * nn) + a) <- add_up m.((j * nn) + a) c;
      m.((b * nn) + j) <- add_up m.((b * nn) + j) c;
      m.((j * nn) + b) <- add_up m.((j * nn) + b) (-.c)
    done;
    (* infinities survive the +-c arithmetic; the diagonal cancels *)
    m.((a * nn) + a) <- 0.0;
    m.((b * nn) + b) <- 0.0;
    t.ud.(a) <- nan;
    t.ud.(b) <- nan
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

let join a b =
  if a.bot then copy b
  else if b.bot then copy a
  else begin
    let r = copy a in
    for i = 0 to (a.nn * a.nn) - 1 do
      if b.m.(i) > r.m.(i) then r.m.(i) <- b.m.(i)
    done;
    Array.fill r.ud 0 r.nn nan;
    r
  end

let widen old next =
  if old.bot then copy next
  else if next.bot then copy old
  else begin
    let r = copy old in
    for i = 0 to (old.nn * old.nn) - 1 do
      if next.m.(i) > old.m.(i) then r.m.(i) <- infinity
    done;
    Array.fill r.ud 0 r.nn nan;
    r
  end
