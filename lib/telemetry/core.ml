(* Domain-safe observability: counters, log-bucketed histograms and
   nested wall-clock spans.

   Design constraints, in order:

   - Disabled must be near-free.  Every instrument operation starts with
     one load of a single static flag and returns immediately when off;
     no allocation, no DLS lookup, no clock read happens on the disabled
     path.  The flag is flipped once at program start (CLI --stats /
     --trace), before any worker domain exists.

   - Domain-safe without hot-path synchronization.  Each instrument
     buffers into a per-domain cell: the cell is created on a domain's
     first use of the instrument (registered into the instrument's cell
     list under a mutex, then cached in domain-local storage), after
     which updates are plain unsynchronized writes to domain-private
     memory.  Aggregation sums the cells; it is exact whenever no pool
     batch is in flight, which is when every caller snapshots.

   - Deterministic where it can be.  Counter and histogram totals are
     sums of per-domain contributions, so they are independent of how
     the pool scheduler spread the work — byte-identical output for
     --jobs 1 and --jobs N, provided the instrumented quantity itself is
     deterministic.  Instruments measuring scheduler behaviour (steals,
     recompiles) are registered with [~nondet:true] and excluded from
     the deterministic snapshot; wall-clock spans are exported (trace,
     summary) but never enter determinism checks. *)

let flag = ref false
let enabled () = !flag
let enable () = flag := true
let disable () = flag := false

let registry_lock = Mutex.create ()

(* --- counters ----------------------------------------------------------- *)

module Counter = struct
  type t = {
    name : string;
    nondet : bool;
    cells : int ref list ref;  (* all domains' cells; registry_lock *)
    key : int ref Domain.DLS.key;
  }

  let registered : t list ref = ref []

  let make ?(nondet = false) name =
    Mutex.lock registry_lock;
    let t =
      match List.find_opt (fun c -> c.name = name) !registered with
      | Some c -> c
      | None ->
        let cells = ref [] in
        let key =
          Domain.DLS.new_key (fun () ->
              let cell = ref 0 in
              Mutex.lock registry_lock;
              cells := cell :: !cells;
              Mutex.unlock registry_lock;
              cell)
        in
        let c = { name; nondet; cells; key } in
        registered := c :: !registered;
        c
    in
    Mutex.unlock registry_lock;
    t

  let add t n =
    if !flag then begin
      let cell = Domain.DLS.get t.key in
      cell := !cell + n
    end

  let incr t = add t 1

  let total t =
    Mutex.lock registry_lock;
    let v = List.fold_left (fun acc c -> acc + !c) 0 !(t.cells) in
    Mutex.unlock registry_lock;
    v
end

(* --- histograms --------------------------------------------------------- *)

(* Log2 buckets over non-negative ints: bucket 0 holds the value 0,
   bucket k (k >= 1) holds [2^(k-1), 2^k).  Bucket counts, count, sum
   and max are all additive/commutative across domains, so the merged
   statistics are scheduler-independent. *)

let n_buckets = 64

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 in
    let v = ref v in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    min !b (n_buckets - 1)
  end

(* inclusive upper bound of bucket [b]: the value reported for quantiles *)
let bucket_top b = if b = 0 then 0 else (1 lsl min b 61) - 1

module Histogram = struct
  type cell = {
    buckets : int array;
    mutable count : int;
    mutable sum : int;
    mutable max : int;
  }

  type t = {
    name : string;
    nondet : bool;
    cells : cell list ref;
    key : cell Domain.DLS.key;
  }

  let registered : t list ref = ref []

  let make ?(nondet = false) name =
    Mutex.lock registry_lock;
    let t =
      match List.find_opt (fun h -> h.name = name) !registered with
      | Some h -> h
      | None ->
        let cells = ref [] in
        let key =
          Domain.DLS.new_key (fun () ->
              let cell =
                { buckets = Array.make n_buckets 0; count = 0; sum = 0; max = 0 }
              in
              Mutex.lock registry_lock;
              cells := cell :: !cells;
              Mutex.unlock registry_lock;
              cell)
        in
        let h = { name; nondet; cells; key } in
        registered := h :: !registered;
        h
    in
    Mutex.unlock registry_lock;
    t

  let observe t v =
    if !flag then begin
      let v = max 0 v in
      let cell = Domain.DLS.get t.key in
      cell.buckets.(bucket_of v) <- cell.buckets.(bucket_of v) + 1;
      cell.count <- cell.count + 1;
      cell.sum <- cell.sum + v;
      if v > cell.max then cell.max <- v
    end
end

type hist_stats = {
  h_count : int;
  h_sum : int;
  h_max : int;
  h_p50 : int;  (** inclusive upper bound of the median's log2 bucket *)
  h_p90 : int;
  h_p99 : int;
}

let hist_stats_of (h : Histogram.t) =
  Mutex.lock registry_lock;
  let buckets = Array.make n_buckets 0 in
  let count = ref 0 and sum = ref 0 and mx = ref 0 in
  List.iter
    (fun (c : Histogram.cell) ->
      Array.iteri (fun i n -> buckets.(i) <- buckets.(i) + n) c.buckets;
      count := !count + c.count;
      sum := !sum + c.sum;
      if c.max > !mx then mx := c.max)
    !(h.cells);
  Mutex.unlock registry_lock;
  let quantile q =
    if !count = 0 then 0
    else begin
      let rank = max 1 (int_of_float (ceil (q *. float !count))) in
      let acc = ref 0 and b = ref 0 in
      (try
         for i = 0 to n_buckets - 1 do
           acc := !acc + buckets.(i);
           if !acc >= rank then begin
             b := i;
             raise Exit
           end
         done
       with Exit -> ());
      bucket_top !b
    end
  in
  {
    h_count = !count;
    h_sum = !sum;
    h_max = !mx;
    h_p50 = quantile 0.50;
    h_p90 = quantile 0.90;
    h_p99 = quantile 0.99;
  }

(* --- spans -------------------------------------------------------------- *)

type span_record = {
  sr_name : string;
  sr_note : string option;
  sr_domain : int;
  sr_start_ns : int64;
  sr_dur_ns : int64;
  sr_depth : int;  (** nesting depth at open: 0 = top-level on its domain *)
}

module Span = struct
  type agg = { mutable ag_count : int; mutable ag_total_ns : int64 }

  type sink = {
    sk_domain : int;
    mutable sk_depth : int;
    mutable sk_records : span_record list;  (* newest first; [`Records] only *)
    sk_aggs : (string, agg) Hashtbl.t;  (* per-name totals; always on *)
  }

  let sinks : sink list ref = ref []

  (* [`Records] keeps one heap record per completed span — needed by the
     Chrome trace exporter, but a long run accumulates millions of
     records whose promotion to the shared major heap is measurable GC
     pressure under jobs > 1.  [`Aggregate] only bumps the per-domain
     (count, total ns) cell, which is all {!span_totals} (and thus the
     --stats summary and perfbench's ledger) ever reads. *)
  let retention : [ `Records | `Aggregate ] ref = ref `Records

  let sink_key : sink Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        let sk =
          {
            sk_domain = (Domain.self () :> int);
            sk_depth = 0;
            sk_records = [];
            sk_aggs = Hashtbl.create 32;
          }
        in
        Mutex.lock registry_lock;
        sinks := sk :: !sinks;
        Mutex.unlock registry_lock;
        sk)

  type t = { name : string }

  let make name = { name }

  let with_ ?note t f =
    if not !flag then f ()
    else begin
      let sk = Domain.DLS.get sink_key in
      let depth = sk.sk_depth in
      sk.sk_depth <- depth + 1;
      let start = Monotonic_clock.now_ns () in
      Fun.protect
        ~finally:(fun () ->
          let dur = Monotonic_clock.elapsed_ns ~since:start in
          sk.sk_depth <- depth;
          (match Hashtbl.find_opt sk.sk_aggs t.name with
           | Some a ->
             a.ag_count <- a.ag_count + 1;
             a.ag_total_ns <- Int64.add a.ag_total_ns dur
           | None ->
             Hashtbl.replace sk.sk_aggs t.name
               { ag_count = 1; ag_total_ns = dur });
          if !retention = `Records then
            sk.sk_records <-
              {
                sr_name = t.name;
                sr_note = (match note with Some f -> Some (f ()) | None -> None);
                sr_domain = sk.sk_domain;
                sr_start_ns = start;
                sr_dur_ns = dur;
                sr_depth = depth;
              }
              :: sk.sk_records)
        f
    end
end

let set_span_retention mode = Span.retention := mode
let span_retention () = !Span.retention

let span_records () =
  Mutex.lock registry_lock;
  let all =
    List.concat_map (fun (sk : Span.sink) -> List.rev sk.sk_records) !Span.sinks
  in
  Mutex.unlock registry_lock;
  (* stable presentation order: domain, then start time *)
  List.stable_sort
    (fun a b ->
      match Int.compare a.sr_domain b.sr_domain with
      | 0 -> Int64.compare a.sr_start_ns b.sr_start_ns
      | c -> c)
    all

(* Totals come from the always-maintained per-domain aggregate cells, so
   they are identical whichever retention mode is active. *)
let span_totals () =
  let tbl : (string, int ref * int64 ref) Hashtbl.t = Hashtbl.create 32 in
  Mutex.lock registry_lock;
  List.iter
    (fun (sk : Span.sink) ->
      Hashtbl.iter
        (fun name (a : Span.agg) ->
          let count, total =
            match Hashtbl.find_opt tbl name with
            | Some cell -> cell
            | None ->
              let cell = (ref 0, ref 0L) in
              Hashtbl.replace tbl name cell;
              cell
          in
          count := !count + a.ag_count;
          total := Int64.add !total a.ag_total_ns)
        sk.Span.sk_aggs)
    !Span.sinks;
  Mutex.unlock registry_lock;
  Hashtbl.fold (fun name (c, t) acc -> (name, !c, !t) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(* --- reset (tests, repeated in-process runs) ---------------------------- *)

(* Only meaningful while no other domain is mutating its cells — i.e.
   between pool batches, which is when every caller resets. *)
let reset () =
  Mutex.lock registry_lock;
  List.iter
    (fun (c : Counter.t) -> List.iter (fun cell -> cell := 0) !(c.cells))
    !Counter.registered;
  List.iter
    (fun (h : Histogram.t) ->
      List.iter
        (fun (cell : Histogram.cell) ->
          Array.fill cell.buckets 0 n_buckets 0;
          cell.count <- 0;
          cell.sum <- 0;
          cell.max <- 0)
        !(h.cells))
    !Histogram.registered;
  List.iter
    (fun (sk : Span.sink) ->
      sk.sk_records <- [];
      sk.sk_depth <- 0;
      Hashtbl.reset sk.sk_aggs)
    !Span.sinks;
  Mutex.unlock registry_lock

(* --- snapshots ---------------------------------------------------------- *)

type snapshot = {
  sn_counters : (string * int) list;  (** name-sorted *)
  sn_histograms : (string * hist_stats) list;  (** name-sorted *)
}

let snapshot ?(nondet = false) () =
  let counters =
    Mutex.lock registry_lock;
    let cs = !Counter.registered in
    Mutex.unlock registry_lock;
    List.filter_map
      (fun (c : Counter.t) ->
        if c.nondet && not nondet then None else Some (c.name, Counter.total c))
      cs
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let histograms =
    Mutex.lock registry_lock;
    let hs = !Histogram.registered in
    Mutex.unlock registry_lock;
    List.filter_map
      (fun (h : Histogram.t) ->
        if h.nondet && not nondet then None else Some (h.name, hist_stats_of h))
      hs
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { sn_counters = counters; sn_histograms = histograms }

(* Headline efficiency ratios derived from the full (nondet-inclusive)
   snapshot — the ratios perfbench's ledger reports.  A rate is only
   reported when its denominator is positive.  [hits_per_attempt] keeps
   the historical hits/attempts definition (a hit is not an attempt, so
   it can exceed 1); [hit_rate] is the bounded hits/(hits+probes)
   form. *)
let derived_rates () =
  let full = snapshot ~nondet:true () in
  let get n = Option.value ~default:0 (List.assoc_opt n full.sn_counters) in
  let rate num den = if den <= 0 then None else Some (float num /. float den) in
  let cache_hits = get "engine.solve_cache_hits" in
  let attempts = get "engine.solve_attempts" in
  let hc_hits = get "term.hashcons_hits" in
  let hc_nodes = get "term.hashcons_nodes" in
  List.filter_map
    (fun (name, v) -> Option.map (fun v -> (name, v)) v)
    [
      ("engine.solve_cache_hit_rate", rate cache_hits (cache_hits + attempts));
      ("engine.solve_cache_hits_per_attempt", rate cache_hits attempts);
      ( "solver.hc4_memo_hits_per_round",
        rate (get "solver.hc4_memo_hits") (get "solver.hc4_rounds") );
      ("term.hashcons_dedup_ratio", rate hc_hits (hc_hits + hc_nodes));
    ]

(* The deterministic part only, rendered for byte-comparison across
   worker counts: counters and histograms, no wall-clock anywhere. *)
let render_deterministic () =
  let snap = snapshot ~nondet:false () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "counters (deterministic)\n";
  Buffer.add_string buf
    (Text_table.render ~header:[ "counter"; "total" ]
       (List.map
          (fun (n, v) -> [ n; string_of_int v ])
          snap.sn_counters));
  Buffer.add_char buf '\n';
  Buffer.add_string buf "histograms (deterministic, log2 buckets)\n";
  Buffer.add_string buf
    (Text_table.render
       ~header:[ "histogram"; "count"; "sum"; "max"; "p50"; "p90"; "p99" ]
       (List.map
          (fun (n, (s : hist_stats)) ->
            [
              n; string_of_int s.h_count; string_of_int s.h_sum;
              string_of_int s.h_max; string_of_int s.h_p50;
              string_of_int s.h_p90; string_of_int s.h_p99;
            ])
          snap.sn_histograms));
  Buffer.contents buf

let render_summary () =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (render_deterministic ());
  let full = snapshot ~nondet:true () in
  let det = snapshot ~nondet:false () in
  let sched =
    List.filter
      (fun (n, _) -> not (List.mem_assoc n det.sn_counters))
      full.sn_counters
  in
  if sched <> [] then begin
    Buffer.add_char buf '\n';
    Buffer.add_string buf "scheduling counters (nondeterministic)\n";
    Buffer.add_string buf
      (Text_table.render ~header:[ "counter"; "total" ]
         (List.map (fun (n, v) -> [ n; string_of_int v ]) sched))
  end;
  let rates = derived_rates () in
  if rates <> [] then begin
    Buffer.add_char buf '\n';
    Buffer.add_string buf "derived rates\n";
    Buffer.add_string buf
      (Text_table.render ~header:[ "rate"; "value" ]
         (List.map (fun (n, v) -> [ n; Fmt.str "%.4f" v ]) rates))
  end;
  let spans = span_totals () in
  if spans <> [] then begin
    Buffer.add_char buf '\n';
    Buffer.add_string buf "spans (wall clock)\n";
    Buffer.add_string buf
      (Text_table.render ~header:[ "span"; "count"; "total ms"; "mean us" ]
         (List.map
            (fun (n, count, total_ns) ->
              let total_ms = Int64.to_float total_ns /. 1e6 in
              let mean_us =
                if count = 0 then 0.0
                else Int64.to_float total_ns /. 1e3 /. float count
              in
              [
                n; string_of_int count; Fmt.str "%.2f" total_ms;
                Fmt.str "%.1f" mean_us;
              ])
            spans))
  end;
  Buffer.contents buf

(* --- JSON --------------------------------------------------------------- *)

let json_summary () =
  let module J = Util.Json in
  let full = snapshot ~nondet:true () in
  let obj f xs = J.Obj (List.map f xs) in
  J.Obj
    [
      ("counters", obj (fun (n, v) -> (n, J.Int v)) full.sn_counters);
      ( "histograms",
        obj
          (fun (n, (s : hist_stats)) ->
            ( n,
              J.Obj
                [
                  ("count", J.Int s.h_count); ("sum", J.Int s.h_sum);
                  ("max", J.Int s.h_max); ("p50", J.Int s.h_p50);
                  ("p90", J.Int s.h_p90); ("p99", J.Int s.h_p99);
                ] ))
          full.sn_histograms );
      ("derived", obj (fun (n, v) -> (n, J.Float v)) (derived_rates ()));
      ( "spans",
        obj
          (fun (n, count, total_ns) ->
            ( n,
              J.Obj
                [
                  ("count", J.Int count);
                  ("total_ms", J.Float (Int64.to_float total_ns /. 1e6));
                ] ))
          (span_totals ()) );
    ]
