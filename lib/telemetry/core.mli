(** Domain-safe counters, log-bucketed histograms and nested wall-clock
    spans.

    Telemetry is globally disabled by default; every instrument
    operation is a single flag check when off.  {!enable} is meant to be
    called once at program start (before worker domains are spawned).
    Instruments buffer into per-domain cells, so the hot path never
    synchronizes; aggregation sums the cells and is exact whenever no
    pool batch is in flight.

    Determinism: counter and histogram totals are order-independent
    sums, so output built from them is byte-identical for any worker
    count as long as the measured quantity is itself deterministic.
    Instruments that measure scheduler behaviour must be registered
    with [~nondet:true]; they are excluded from {!render_deterministic}
    and from [snapshot ~nondet:false].  Spans carry wall-clock time and
    never participate in determinism checks. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero every cell and drop all span records.  Only call while no
    other domain is using the instruments (between pool batches). *)

val set_span_retention : [ `Records | `Aggregate ] -> unit
(** [`Records] (the default) keeps one record per completed span — the
    Chrome trace exporter needs them.  [`Aggregate] only maintains the
    per-name (count, total ns) cells behind {!span_totals}: a long run
    then retains O(span names) instead of O(spans) memory, which
    removes measurable shared-major-heap pressure under [jobs > 1].
    Callers that never export a trace (perfbench, [--stats] without
    [--trace]) should switch to [`Aggregate] right after {!enable}.
    Like {!enable}, meant to be set before worker domains spawn. *)

val span_retention : unit -> [ `Records | `Aggregate ]

module Counter : sig
  type t

  val make : ?nondet:bool -> string -> t
  (** Register (or look up — [make] is idempotent by name) a monotonic
      counter.  Meant for top-level [let]s in the instrumented module. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val total : t -> int
end

module Histogram : sig
  type t

  val make : ?nondet:bool -> string -> t

  val observe : t -> int -> unit
  (** Record a non-negative value (sizes, node counts, lengths) into
      its log2 bucket.  Negative values clamp to 0. *)
end

module Span : sig
  type t

  val make : string -> t

  val with_ : ?note:(unit -> string) -> t -> (unit -> 'a) -> 'a
  (** Time [f] with {!Monotonic_clock} and record a completed span on
      the current domain's sink (also on exception).  [note] is only
      forced when telemetry is enabled.  Spans nest per domain; depth
      is recorded at open. *)
end

type hist_stats = {
  h_count : int;
  h_sum : int;
  h_max : int;
  h_p50 : int;  (** inclusive upper bound of the quantile's log2 bucket *)
  h_p90 : int;
  h_p99 : int;
}

type span_record = {
  sr_name : string;
  sr_note : string option;
  sr_domain : int;
  sr_start_ns : int64;
  sr_dur_ns : int64;
  sr_depth : int;
}

type snapshot = {
  sn_counters : (string * int) list;  (** name-sorted *)
  sn_histograms : (string * hist_stats) list;  (** name-sorted *)
}

val snapshot : ?nondet:bool -> unit -> snapshot
(** Aggregate counters and histograms.  [nondet] (default [false])
    includes the scheduler-dependent instruments. *)

val derived_rates : unit -> (string * float) list
(** Headline efficiency ratios computed from the full snapshot —
    solve-cache hit rate, term hashcons dedup ratio, HC4 memo hits per
    round.  A rate is omitted while its denominator is zero.  Surfaced
    by {!render_summary} and {!json_summary} (key ["derived"]). *)

val span_records : unit -> span_record list
(** All completed spans, ordered by (domain, start time). *)

val span_totals : unit -> (string * int * int64) list
(** Per span name: (name, count, total ns), name-sorted. *)

val render_deterministic : unit -> string
(** Text tables of the deterministic snapshot only — byte-identical for
    any [--jobs] value over the same work. *)

val render_summary : unit -> string
(** {!render_deterministic} plus scheduling counters, derived rates and
    wall-clock span totals, clearly sectioned. *)

val json_summary : unit -> Util.Json.t
(** One JSON object: [{"counters": {...}, "histograms": {...},
    "derived": {...}, "spans": {...}}] — includes nondeterministic
    instruments. *)
