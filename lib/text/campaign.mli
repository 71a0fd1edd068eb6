(** Resumable corpus campaigns over directories of [.stcg] files.

    {!run} discovers every [*.stcg] model in a directory, runs the
    selected tool on each (parallel on a {!Harness.Pool}), and writes
    one self-describing JSON result file per model into a results
    directory.  On re-invocation, models whose stored result matches
    the campaign configuration (tool, budget, seed) are loaded instead
    of re-run — an interrupted campaign resumes with only the missing
    models, and half-written or stale result files simply fall back to
    re-running.  Stored floats round-trip exactly ({!Util.Json}), and the
    summary is a pure function of the per-model outcomes, so a resumed
    campaign's summary is byte-identical to an uninterrupted run's. *)

type result = {
  kind : string;  (** ["diagram" | "chart" | "program"] *)
  branches : int;
  decision : float;
  condition : float;
  mcdc : float;
  tests : int;
}

type outcome = {
  o_model : string;  (** file basename without [.stcg] *)
  o_file : string;
  o_cached : bool;  (** loaded from the result store, not executed *)
  o_result : (result, Syntax.error) Stdlib.result;
      (** [Error] on parse failure (or an unexpected run failure,
          reported as T900); failures are never cached. *)
}

type t = {
  outcomes : outcome list;  (** one per [.stcg] file, sorted by model name *)
  summary : string;
  executed : int;
  cached : int;
  failed : int;
}

val discover : string -> (string * string) list
(** [(model, path)] for every [*.stcg] in the directory, sorted. *)

val run :
  ?tool:Harness.Experiment.tool ->
  ?budget:float ->
  ?seed:int ->
  ?jobs:int ->
  ?results_dir:string ->
  ?log:(string -> unit) ->
  string ->
  t
(** [run dir] executes the campaign.  Defaults: tool [STCG], budget
    600 (virtual seconds), seed 1, jobs {!Harness.Pool.default_jobs},
    results dir [dir/results], no progress logging.  [log] receives
    human-oriented progress lines (cached/executed counts) that are
    {e not} part of the summary. *)
