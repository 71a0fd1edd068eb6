exception Nested_pool

(* [pool.jobs]/[pool.batches] count the same work for any worker count,
   so they are deterministic; everything that depends on how the
   scheduler spread the work ([pool.steals], per-worker busy time,
   initial queue depths, the effective worker count) is [~nondet] and
   excluded from determinism checks.  The [pool.job] span gives per-
   domain busy time per job. *)
let tel_jobs = Telemetry.Counter.make "pool.jobs"
let tel_batches = Telemetry.Counter.make "pool.batches"
let tel_steals = Telemetry.Counter.make ~nondet:true "pool.steals"
let tel_sp_job = Telemetry.Span.make "pool.job"
let tel_busy = Telemetry.Histogram.make ~nondet:true "pool.worker_busy_ms"
let tel_qdepth = Telemetry.Histogram.make ~nondet:true "pool.queue_depth"
let tel_workers = Telemetry.Histogram.make ~nondet:true "pool.effective_workers"

(* Set while a domain (worker or the caller mid-[map]) is executing pool
   jobs; guards against nested parallelism. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let default_jobs () =
  match Sys.getenv_opt "STCG_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | Some _ | None -> max 1 (Domain.recommended_domain_count () - 1))
  | None -> max 1 (Domain.recommended_domain_count () - 1)

(* More worker domains than cores is pure loss in OCaml 5: the runs are
   CPU-bound, and every minor collection is a stop-the-world handshake
   across *all* domains, so an oversubscribed domain turns each minor GC
   into an OS scheduling round-trip.  (Measured on a 1-core container:
   jobs=2 ran the table3 matrix 2.3x *slower* than jobs=1.)  Requested
   parallelism is therefore clamped to the hardware by default;
   [~oversubscribe:true] (or STCG_OVERSUBSCRIBE=1) keeps the requested
   count — tests use it to exercise real cross-domain scheduling on any
   machine. *)
let oversubscribe_env () = Sys.getenv_opt "STCG_OVERSUBSCRIBE" = Some "1"

let effective_jobs ?(oversubscribe = false) requested =
  let requested = max 1 requested in
  if oversubscribe || oversubscribe_env () then requested
  else min requested (max 1 (Domain.recommended_domain_count ()))

(* One worker's slice of a batch: a deque of job indices.  The owner
   pops at [lo]; thieves pop at [hi - 1].  A plain mutex per deque is
   plenty — jobs here are whole engine runs (milliseconds to seconds),
   so deque traffic is negligible. *)
type deque = {
  d_lock : Mutex.t;
  d_idx : int array;
  mutable d_lo : int;
  mutable d_hi : int;
}

type batch = {
  b_deques : deque array;
  b_run : int -> unit;  (* executes job [i]; never raises *)
  b_aborted : bool ref;  (* set on first failure: skip unstarted jobs *)
  mutable b_remaining : int;  (* jobs not yet executed or skipped *)
}

type t = {
  requested : int;  (* the parallelism the caller asked for *)
  workers : int;  (* domains actually used, incl. the caller; clamped *)
  lock : Mutex.t;  (* protects every mutable field below *)
  work : Condition.t;  (* a batch was submitted, or shutdown *)
  finished : Condition.t;  (* b_remaining hit 0 *)
  mutable batch : batch option;
  mutable generation : int;  (* bumped per submitted batch *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let size t = t.requested
let workers t = t.workers

let take_own d =
  Mutex.lock d.d_lock;
  let r =
    if d.d_lo < d.d_hi then begin
      let i = d.d_idx.(d.d_lo) in
      d.d_lo <- d.d_lo + 1;
      Some i
    end
    else None
  in
  Mutex.unlock d.d_lock;
  r

let steal d =
  Mutex.lock d.d_lock;
  let r =
    if d.d_lo < d.d_hi then begin
      let i = d.d_idx.(d.d_hi - 1) in
      d.d_hi <- d.d_hi - 1;
      Some i
    end
    else None
  in
  Mutex.unlock d.d_lock;
  if r <> None then Telemetry.Counter.incr tel_steals;
  r

(* Next job for worker [w]: own deque first, then steal round-robin. *)
let next_job b w =
  let n = Array.length b.b_deques in
  match take_own b.b_deques.(w) with
  | Some i -> Some i
  | None ->
    let rec go k =
      if k = n then None
      else
        match steal b.b_deques.((w + k) mod n) with
        | Some i -> Some i
        | None -> go (k + 1)
    in
    go 1

(* Execute (or, after an abort, skip) jobs until none are reachable.
   Every drained job decrements [b_remaining]; the worker that hits 0
   wakes the submitter. *)
let drain t b w =
  let busy_t0 =
    if Telemetry.enabled () then Telemetry.Monotonic_clock.now_ns () else 0L
  in
  let rec loop () =
    match next_job b w with
    | None -> ()
    | Some i ->
      if not !(b.b_aborted) then b.b_run i;
      Mutex.lock t.lock;
      b.b_remaining <- b.b_remaining - 1;
      if b.b_remaining = 0 then Condition.broadcast t.finished;
      Mutex.unlock t.lock;
      loop ()
  in
  loop ();
  if Telemetry.enabled () then
    Telemetry.Histogram.observe tel_busy
      (Int64.to_int
         (Int64.div
            (Telemetry.Monotonic_clock.elapsed_ns ~since:busy_t0)
            1_000_000L))

let worker t w () =
  Domain.DLS.set in_worker true;
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    while (not t.stop) && t.generation = !last do
      Condition.wait t.work t.lock
    done;
    if t.generation <> !last then begin
      last := t.generation;
      let b = t.batch in
      Mutex.unlock t.lock;
      (* [batch] may already be back to [None] if the other workers
         finished it before this one woke up — nothing to do then. *)
      match b with None -> () | Some b -> drain t b w
    end
    else begin
      Mutex.unlock t.lock;
      running := false
    end
  done

let create ?jobs ?oversubscribe () =
  let requested = max 1 (Option.value jobs ~default:(default_jobs ())) in
  let workers = effective_jobs ?oversubscribe requested in
  let t =
    {
      requested;
      workers;
      lock = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      batch = None;
      generation = 0;
      stop = false;
      domains = [];
    }
  in
  (* the caller is worker 0; spawn the rest *)
  t.domains <- List.init (workers - 1) (fun i -> Domain.spawn (worker t (i + 1)));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  let ds = t.domains in
  t.domains <- [];
  List.iter Domain.join ds

let with_pool ?jobs ?oversubscribe f =
  let t = create ?jobs ?oversubscribe () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let mk_deque idx =
  { d_lock = Mutex.create (); d_idx = idx; d_lo = 0; d_hi = Array.length idx }

(* Split [0 .. njobs-1] into [n] contiguous blocks (front-loaded when
   it does not divide evenly): preserves submission locality when no
   cost model is given. *)
let partition njobs n =
  let q = njobs / n and r = njobs mod n in
  Array.init n (fun w ->
      let lo = (w * q) + min w r in
      let len = q + if w < r then 1 else 0 in
      mk_deque (Array.init len (fun k -> lo + k)))

(* Deal a cost-descending job order round-robin across the workers:
   every owner pops its heaviest job first and the expected load is
   balanced, so one heavyweight cell no longer serializes the tail of
   the batch.  Scheduling only — results are still merged by original
   job index, so output is unchanged. *)
let partition_by_cost items njobs n cost =
  let order = Array.init njobs (fun i -> i) in
  let costs = Array.map (fun it -> cost it) items in
  Array.sort
    (fun i j ->
      match compare costs.(j) costs.(i) with 0 -> compare i j | c -> c)
    order;
  Array.init n (fun w ->
      let len = (njobs - w + n - 1) / n in
      mk_deque (Array.init len (fun k -> order.(w + (k * n)))))

let map t ?cost f items_list =
  if Domain.DLS.get in_worker then raise Nested_pool;
  let items = Array.of_list items_list in
  let njobs = Array.length items in
  if njobs = 0 then []
  else if t.workers = 1 || njobs = 1 then begin
    (* the exact sequential path: same domain, same evaluation order,
       exceptions propagate untouched.  Jobs are still counted and
       spanned so telemetry totals match the parallel path, and
       [in_worker] is still set so nested parallelism is rejected on
       every machine, not only where the clamp leaves > 1 worker. *)
    Telemetry.Counter.incr tel_batches;
    Domain.DLS.set in_worker true;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set in_worker false)
      (fun () ->
        List.map
          (fun x ->
            Telemetry.Counter.incr tel_jobs;
            Telemetry.Span.with_ tel_sp_job (fun () -> f x))
          items_list)
  end
  else begin
    Telemetry.Counter.incr tel_batches;
    let results = Array.make njobs None in
    let failure = ref None in
    let aborted = ref false in
    let run i =
      try
        Telemetry.Counter.incr tel_jobs;
        results.(i) <- Some (Telemetry.Span.with_ tel_sp_job (fun () -> f items.(i)))
      with exn ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.lock t.lock;
        (match !failure with
         | Some (j, _, _) when j <= i -> ()
         | Some _ | None -> failure := Some (i, exn, bt));
        aborted := true;
        Mutex.unlock t.lock
    in
    let deques =
      match cost with
      | None -> partition njobs t.workers
      | Some c -> partition_by_cost items njobs t.workers c
    in
    if Telemetry.enabled () then begin
      Telemetry.Histogram.observe tel_workers t.workers;
      Array.iter
        (fun d -> Telemetry.Histogram.observe tel_qdepth (d.d_hi - d.d_lo))
        deques
    end;
    let b =
      {
        b_deques = deques;
        b_run = run;
        b_aborted = aborted;
        b_remaining = njobs;
      }
    in
    Mutex.lock t.lock;
    if t.stop then begin
      Mutex.unlock t.lock;
      invalid_arg "Pool.map: pool is shut down"
    end;
    if t.batch <> None then begin
      Mutex.unlock t.lock;
      invalid_arg "Pool.map: a batch is already in flight on this pool"
    end;
    t.batch <- Some b;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    (* participate as worker 0, then wait out in-flight stolen jobs *)
    Domain.DLS.set in_worker true;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set in_worker false)
      (fun () -> drain t b 0);
    Mutex.lock t.lock;
    while b.b_remaining > 0 do
      Condition.wait t.finished t.lock
    done;
    t.batch <- None;
    Mutex.unlock t.lock;
    match !failure with
    | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None ->
      Array.to_list
        (Array.map (function Some v -> v | None -> assert false) results)
  end

(* Group tiny jobs into chunks of [chunk] so that deque/steal traffic is
   paid once per chunk instead of once per item.  Chunks are formed in
   input order and results concatenated in chunk order, so the
   determinism contract of [map] carries over unchanged; the exception
   re-raised on failure is that of the lowest-indexed failed *chunk*
   (within a chunk, items run left to right). *)
let map_chunked t ~chunk f items =
  if chunk <= 1 then map t f items
  else begin
    let rec chunks acc cur k = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: rest ->
        if k = chunk then chunks (List.rev cur :: acc) [ x ] 1 rest
        else chunks acc (x :: cur) (k + 1) rest
    in
    List.concat (map t (List.map f) (chunks [] [] 0 items))
  end

let parallel_map ?jobs ?oversubscribe ?cost f items =
  with_pool ?jobs ?oversubscribe (fun t -> map t ?cost f items)
