(** The experiment harness: reproduces every table and figure of the
    paper's evaluation on the rebuilt benchmark suite.

    All experiments are deterministic given their seeds; randomized
    tools (STCG, SimCoTest) are averaged over [seeds] as the paper
    averages over 10 repetitions.

    The independent (tool, model, seed) runs behind each experiment are
    executed on a {!Pool} of worker domains ([?jobs], default
    {!Pool.default_jobs} — the [STCG_JOBS] environment variable or the
    machine's core count minus one).  Jobs are enumerated up front and
    results merged in job-index order, so every table, panel and CSV is
    byte-identical for any [jobs] value; [jobs = 1] runs the exact
    sequential path.

    Pass [?pool] to run several experiments on one shared pool, or on
    one built with [~oversubscribe:true] (the jobs-invariance tests do
    this); it takes precedence over [?jobs]. *)

type tool = STCG | STCG_hybrid | SLDV | SimCoTest

val tool_name : tool -> string

val run_tool :
  ?budget:float ->
  ?analyze:bool ->
  ?domain:Analysis.Analyzer.domain ->
  ?verdict_priority:bool ->
  seed:int ->
  tool ->
  Models.Registry.entry ->
  Stcg.Run_result.t
(** [analyze] (default false, STCG variants only): run the static
    analyzer first so proven-dead objectives are justified and skipped.
    [domain] (default [`Interval]) picks the abstract domain,
    and [verdict_priority] (default false) enables verdict-ordered
    solving with static Unsat pruning (see {!Stcg.Engine.config}). *)

type averaged = {
  a_model : string;
  a_tool : tool;
  a_decision : float;
  a_condition : float;
  a_mcdc : float;
  a_tests : float;
  a_runs : int;
}

val average :
  ?budget:float -> ?pool:Pool.t -> ?jobs:int -> seeds:int list -> tool ->
  Models.Registry.entry -> averaged

(** {1 Paper artifacts}

    Where an artifact takes [?models], each name must be a registry
    model: an unknown one raises [Invalid_argument] with the list of
    known models. *)

val table1 : ?budget:float -> ?seed:int -> unit -> string
(** The state-tree construction trace on CPUTask (paper Table I). *)

val table2 : unit -> string
(** Benchmark description: our branch/block counts next to the paper's
    (paper Table II). *)

val table3 :
  ?budget:float -> ?seeds:int list -> ?models:string list -> ?pool:Pool.t ->
  ?jobs:int -> unit -> averaged list * string
(** Coverage comparison of the three tools over all models with average
    improvements (paper Table III), averaged over [seeds] (default
    [1..5]).  Returns the raw rows and the rendered table. *)

val fig3 : unit -> string
(** CPUTask branch structure and an example explored state tree
    (paper Figure 3). *)

val fig4 :
  ?budget:float -> ?seed:int -> ?models:string list -> ?pool:Pool.t ->
  ?jobs:int -> unit -> string * (string * string) list
(** Decision-coverage-versus-time panels for each model (paper
    Figure 4).  Returns the rendered panels and, per model, a CSV dump
    of the series ((model, csv) pairs). *)

val ablations :
  ?budget:float -> ?seeds:int list -> ?models:string list -> ?pool:Pool.t ->
  ?jobs:int -> unit -> string
(** Ablation study over STCG's design choices: depth-sorted targets,
    state-aware (constant) solving, the random-sequence fallback, and
    the random-first hybrid from the paper's Discussion, averaged over
    [seeds] (default [1..3]) on [models] (default CPUTask and TCP). *)
