(** A shared-nothing, domain-based parallel run pool.

    The experiment harness averages randomized tools over many
    (tool, model, seed) runs; the runs are embarrassingly parallel
    (every run builds its own tracker, tree and RNG), so the harness
    enumerates its job matrix up front and executes it here.  The pool
    is a fixed set of worker {!Domain}s coordinated with stdlib
    [Mutex]/[Condition] only — no external dependency.  Each batch of
    jobs is split into per-worker deques; a worker pops from its own
    deque and, when empty, steals from the others, so stragglers
    (one slow model run) do not serialize the batch.

    Determinism contract: {!map} returns results in input order,
    regardless of how jobs were scheduled across domains.  Callers that
    merge in job-index order therefore produce byte-identical output
    for any worker count — when only one worker is effective, {!map}
    runs the exact sequential [List.map] path in the calling domain,
    spawning no domains at all.

    Oversubscription clamp: requested parallelism is clamped to
    [Domain.recommended_domain_count ()] ({!effective_jobs}).  OCaml 5
    minor collections are stop-the-world across every domain, so a
    domain beyond the core count turns each minor GC into an OS
    scheduling round-trip — on a 1-core container, jobs=2 measured
    2.3x {e slower} than jobs=1 before the clamp.  Pass
    [~oversubscribe:true] (or set STCG_OVERSUBSCRIBE=1) to force the
    requested count anyway, e.g. to exercise real cross-domain
    scheduling in tests on any machine.

    The submitting domain participates as a worker during {!map}, so a
    pool of [n] effective workers uses [n - 1] spawned domains plus the
    caller.

    Worker-count selection ({!default_jobs}): the [STCG_JOBS]
    environment variable if set to a positive integer, otherwise
    [Domain.recommended_domain_count () - 1] (at least 1). *)

exception Nested_pool
(** Raised by {!map}/{!map_chunked} when called from inside a pool job:
    nested data-parallelism would oversubscribe the machine and break
    the sequential-equivalence contract, so it is an error. *)

val default_jobs : unit -> int
(** [STCG_JOBS] if set and positive, else
    [max 1 (Domain.recommended_domain_count () - 1)]. *)

val effective_jobs : ?oversubscribe:bool -> int -> int
(** The worker count a pool created with [jobs = n] actually uses:
    [min n (Domain.recommended_domain_count ())], at least 1 — unless
    [oversubscribe] (or STCG_OVERSUBSCRIBE=1), which keeps [n]. *)

type t
(** A pool handle.  Workers idle on a condition variable between
    batches; {!shutdown} joins them.  One batch at a time: concurrent
    {!map} calls on the same pool are a programming error
    ([Invalid_argument]). *)

val create : ?jobs:int -> ?oversubscribe:bool -> unit -> t
(** [create ?jobs ()] spawns [effective_jobs jobs - 1] worker domains
    ([jobs] defaults to {!default_jobs}; values < 1 are clamped to 1).
    A single effective worker spawns nothing. *)

val size : t -> int
(** The worker count [jobs] the pool was requested with (including the
    calling domain), before the oversubscription clamp. *)

val workers : t -> int
(** The effective worker count: [effective_jobs (size t)] as resolved
    at {!create} time.  [workers t = 1] means every {!map} runs the
    sequential path. *)

val shutdown : t -> unit
(** Signal and join all worker domains.  Idempotent.  Must not be
    called while a {!map} is in flight. *)

val with_pool : ?jobs:int -> ?oversubscribe:bool -> (t -> 'a) -> 'a
(** [with_pool ?jobs f] runs [f] on a fresh pool and guarantees
    {!shutdown}, also on exception. *)

val map : t -> ?cost:('a -> int) -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f items] applies [f] to every item, in parallel, and
    returns the results in input order.  If any [f] raises, remaining
    unstarted jobs are abandoned, in-flight jobs finish, the workers
    are quiesced, and the exception of the lowest-indexed failed job is
    re-raised in the caller (with its backtrace).

    [cost] is a deterministic relative-duration estimate used for
    scheduling only: jobs are dealt to the workers in cost-descending
    order (ties broken by job index) so each worker starts with its
    heaviest job and expected load is balanced — a wildly uneven batch
    no longer ends with one worker grinding through a heavyweight tail
    alone.  Results, their order, and the failure contract are
    unaffected; a bad estimate can only cost speed.  Ignored on the
    sequential path. *)

val map_chunked : t -> chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** Like {!map}, but schedules items in contiguous chunks of [chunk]
    (the last chunk may be shorter) so that jobs much smaller than the
    steal granularity — e.g. one fuzz case — amortize pool overhead.
    Results are still returned in input order for any worker count and
    [chunk]; [chunk <= 1] is exactly {!map}.  On failure the exception
    of the lowest-indexed failed chunk is re-raised (items within a
    chunk run left to right, stopping at the first raise). *)

val parallel_map :
  ?jobs:int -> ?oversubscribe:bool -> ?cost:('a -> int) -> ('a -> 'b) ->
  'a list -> 'b list
(** One-shot convenience: {!with_pool} around {!map}. *)
