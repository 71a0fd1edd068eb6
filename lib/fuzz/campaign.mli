(** Fuzzing campaigns: generate N cases, run the oracles, shrink
    failures, summarize.

    Every case is addressed by [(campaign seed, index)] alone:
    {!case_seed} derives an independent per-case RNG, so case [i]
    replays identically whether the campaign runs sequentially, on a
    pool, or as a single [--count 1] re-run of that index.  Campaign
    results are therefore byte-identical for any [jobs]/[chunk]
    setting (the pool merges in index order). *)

type failure = {
  f_case : int;  (** index of the failing case within the campaign *)
  f_oracle : string;  (** ["build"] or an {!Oracle.all} name *)
  f_message : string;  (** verdict message of the {e original} case *)
  f_orig_size : int;  (** {!Gen.size_of} before shrinking *)
  f_size : int;  (** {!Gen.size_of} of the minimized case *)
  f_steps : int;  (** input rows of the minimized case *)
  f_rounds : int;
  f_checks : int;
  f_repro : string;  (** runnable OCaml snippet ({!Gen.pp_repro}) *)
}

type case = {
  c_index : int;
  c_chart : bool;  (** standalone chart (vs block diagram) *)
  c_blocks : int;  (** {!Gen.size_of} of the generated model *)
  c_steps : int;
  c_decisions : int;  (** decisions in the compiled program *)
  c_verdicts : (string * Oracle.verdict) list;
}

type summary = {
  s_seed : int;
  s_count : int;
  s_max_steps : int;
  s_oracles : string list;
  s_cases : case list;  (** in index order *)
  s_charts : int;
  s_diagrams : int;
  s_steps_total : int;
  s_blocks_total : int;
  s_decisions_total : int;
  s_oracle_runs : (string * int) list;  (** per oracle, cases checked *)
  s_failures : failure list;  (** in index order *)
}

val case_seed : seed:int -> int -> int
(** Per-case seed for case [i]: a SplitMix-style mix of the campaign
    seed and the index, so neighbouring indices share no structure. *)

val case_gen :
  seed:int ->
  max_steps:int ->
  int ->
  Gen.model_spec * int * (Slim.Ir.program -> (string * Slim.Value.t) list list)
(** [case_gen ~seed ~max_steps i] draws case [i]'s model, step count
    and input generator — exactly the random draws {!run_case} makes
    before judging, exposed so corpus tooling (the [.stcg] exporter,
    the text round-trip suite, the analysis fingerprint) can
    materialize the same cases without running any oracle.  The returned input thunk
    is pure: it replays the same input rows however often it is
    called. *)

val run_case :
  ?oracles:string list ->
  ?shrink_checks:int ->
  seed:int ->
  max_steps:int ->
  int ->
  case * failure option
(** Generate, execute and judge case [i].  [oracles] defaults to
    {!Oracle.all}; on the first failing oracle the case is shrunk
    ([shrink_checks] bounds the {!Shrink.minimize} budget, default
    400) and reported.  A model that fails to compile — a generator
    invariant violation — is reported as oracle ["build"]. *)

val run :
  ?oracles:string list ->
  ?jobs:int ->
  ?chunk:int ->
  ?shrink_checks:int ->
  seed:int ->
  count:int ->
  max_steps:int ->
  unit ->
  summary
(** Run the whole campaign.  [jobs] defaults to 1 (sequential);
    [jobs > 1] fans cases out over {!Harness.Pool.map_chunked} with
    chunk size [chunk] (default 8) and merges in index order, so the
    summary does not depend on parallelism. *)

val failures : summary -> int
(** Number of failing cases (0 = campaign clean). *)

val pp_summary : summary Fmt.t
(** Human-readable report: totals, per-oracle table, then each failure
    with its minimized reproducer. *)

val to_json : ?telemetry:Util.Json.t -> summary -> string
(** The same data as a one-line JSON object (reproducers included as
    escaped strings), printed by [fuzz --json].  [telemetry] is
    placed under the ["telemetry"] key (see {!Telemetry.json_summary}). *)
