(** Octagon abstract domain: conjunctions of [+/-x +/-y <= c].

    A difference-bound matrix (DBM) over [2n] encoded indices for [n]
    abstract variables: index [2k] stands for [+v_k] and [2k+1] for
    [-v_k]; entry [(i, j)] bounds [x_j - x_i].  A unary bound
    [v_k <= c] is the edge [x_2k - x_2k+1 <= 2c].  Strong closure is
    Floyd-Warshall shortest paths plus the octagon strengthening step
    [m(i,j) <- min m(i,j) ((m(i,i') + m(j',j)) / 2)]; variables marked
    integer additionally tighten their unary edges to even values.

    Closure: a constraint add re-runs the Floyd-Warshall pivots of the
    (up to four) touched indices, strengthens, and then tightens the
    unary edges of integer variables {e without} re-closing: after
    [v1 - v0 <= 0] and [v0 <= 2.5] with [v0] integer, the matrix holds
    [v0 <= 2] but still [v1 <= 2.5].  {!forget} and {!shift} preserve
    closure, and join (pointwise max) of two closed octagons is
    closed.  {!widen} leaves the matrix open, and the caller re-closes
    via {!close}.  Since every entry is a sound upper bound, an
    under-closed matrix is still sound, only less precise.

    The closure kernels only visit entries that can change, and the
    result is the same, bit for bit, as the full loops:
    - a pivot [k] collects the finite entries of row [k] once, and each
      row with a finite [m(i,k)] walks only those columns (an infinite
      entry cannot become finite during the pivot);
    - a strengthening pass never moves a unary edge [m(i, bar i)], so
      each octagon keeps a snapshot of the unary edges its last pass
      saw.  A pass then visits only the rows [i] and columns [bar i]
      whose unary edge differs from the snapshot, against the finite
      unary edges: every other pair already satisfies the
      strengthening bound, because between passes entries only fall.
      The invariant breaks where an entry can rise, so {!create},
      {!forget} and {!shift} (on the touched variable's indices) and
      the results of {!join} and {!widen} (everywhere) invalidate the
      snapshot; {!copy} copies it;
    - each octagon carries a {e fixpoint flag}: the matrix is closed in
      exact arithmetic, so no pivot would lower any entry.  While it
      holds, an add runs {e restricted pivots}: it marks every entry it
      lowers, starting with the new edge and its mirror, and pivot [k]
      updates [(i, j)] only when [m(i,k)] or [m(k,j)] is marked (every
      row when [m(k,k) < 0]).  The skipped updates read the closed
      matrix's own entries and lower nothing.  The flag is on at
      {!create} and after a {!close}, and survives an add and a
      {!shift}, when every sum involved was exact and integral
      tightening lowered nothing; {!forget} keeps it, {!join} keeps it
      when both sides hold it, and {!widen} and a lowering
      {!constrain_raw} clear it.  Adds without it run the full pivots.
      The counters [analysis.oct.restricted_adds] and
      [analysis.oct.full_adds] split the effective adds by path.

    All bounds are floats; [infinity] means "no constraint".  Callers
    are responsible for only adding constraints that are {e exact} for
    the concrete semantics they abstract (see the [SOUND:] notes in
    {!Analyzer}): integer-valued variables must stay inside the
    float-exact window, and real-valued constraints must come from
    rounding-free facts (copies, comparisons). *)

type t

val create : ints:bool array -> t
(** Top octagon over [Array.length ints] variables; [ints.(k)] marks
    [v_k] integer-valued (enables integral tightening). *)

val copy : t -> t
val equal : t -> t -> bool

val is_bottom : t -> bool
(** The octagon has been proven empty (a negative cycle appeared during
    some closure).  Empty octagons absorb further constraint adds. *)

(** {1 Constraints}

    Each add runs incremental strong closure and records emptiness when
    a negative cycle appears; they never raise. Constants with
    magnitude beyond [2e15] (twice the analyzer's window of [1e15], so
    a doubled unary bound fits) are ignored (kept as "no constraint")
    rather than trusted. *)

val add_upper : t -> int -> float -> unit
(** [add_upper t k c]: [v_k <= c]. *)

val add_lower : t -> int -> float -> unit
(** [add_lower t k c]: [v_k >= c]. *)

val add_diff : t -> int -> int -> float -> unit
(** [add_diff t a b c]: [v_a - v_b <= c] ([a <> b]). *)

(** {1 Transfer} *)

val forget : t -> int -> unit
(** Drop every constraint mentioning [v_k] (projection).  The matrix
    stays closed, so facts derived through [v_k] survive. *)

val shift : t -> int -> float -> unit
(** [shift t k c]: the exact assignment [v_k := v_k + c]. *)

val assign_copy : t -> dst:int -> src:int -> offset:float -> unit
(** The exact assignment [v_dst := v_src + offset] ([dst <> src]):
    forgets [dst], then pins [v_dst - v_src = offset]. *)

(** {1 Queries (on closed octagons)} *)

val bounds : t -> int -> float * float
(** [(lo, hi)] for [v_k]; infinite when unconstrained.  On an empty
    octagon the result may have [lo > hi]. *)

val diff_bounds : t -> int -> int -> float * float
(** Bounds of [v_a - v_b]. *)

val sum_bounds : t -> int -> int -> float * float
(** Bounds of [v_a + v_b]. *)

(** {1 Lattice} *)

val join : t -> t -> t
(** Pointwise max (both arguments closed => result strongly closed).
    If either side is bottom, returns a copy of the other. *)

val join_inplace : t -> t -> unit
(** [join_inplace a b] turns [a] into [join a b], bit for bit, without
    copying the matrix. *)

val widen : t -> t -> t
(** [widen old next]: entries that grew go to [infinity].  The result
    is {e not} closed; call {!close} before querying it. *)

val close : t -> unit
(** Full strong closure (Floyd-Warshall + strengthening + integral
    tightening).  Needed after {!widen}; the adds close incrementally,
    except for what their integral tightening implies. *)

val meet_interval : t -> int -> lo:float -> hi:float -> unit
(** Constrain [v_k] to [\[lo, hi\]] (infinite bounds allowed). *)

val constrain_raw : t -> int -> lo:float -> hi:float -> unit
(** Like {!meet_interval} but without re-closing: bulk seeding calls
    this per variable and then runs a single {!close}. *)
