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
    this); it takes precedence over [?jobs].

    Sharding: the parallel experiments additionally expose their
    canonical job matrix ([*_njobs]), a cell executor ([*_cells]) that
    can run any deterministic stripe of it ([?stripe:(i, n)] keeps jobs
    with index [j mod n = i]), and a pure renderer ([*_of_cells]) that
    rebuilds the exact artifact from the full cell list in matrix
    order.  {!Shard} serializes cells to partial-result files and
    merges them back through the same renderers, so a sharded
    multi-process campaign is byte-identical to a single-process run. *)

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
    improvements (paper Table III).  Returns the raw rows and the
    rendered table. *)

val t3_default_seeds : int list
(** The seed list {!table3} averages over by default ([1..5]). *)

type t3_cell = {
  t3_decision : float;
  t3_condition : float;
  t3_mcdc : float;
  t3_tests : int;
}
(** Outcome of one (model, tool, seed) Table III run. *)

val table3_njobs : ?seeds:int list -> ?models:string list -> unit -> int
(** Size of the canonical Table III job matrix for these parameters. *)

val table3_cells :
  ?budget:float -> ?seeds:int list -> ?models:string list -> ?pool:Pool.t ->
  ?jobs:int -> ?stripe:int * int -> unit -> (int * t3_cell) list
(** Execute (a stripe of) the Table III matrix; returns
    [(job_index, cell)] in index order.  [stripe = (i, n)] keeps jobs
    with [index mod n = i]; raises [Invalid_argument] unless
    [0 <= i < n]. *)

val table3_of_cells :
  ?budget:float -> ?seeds:int list -> ?models:string list -> t3_cell list ->
  averaged list * string
(** Rebuild {!table3}'s result from the full cell list in matrix order
    (raises [Invalid_argument] on a count mismatch).  [budget], [seeds]
    and [models] must match the values the cells were produced with. *)

val fig3 : unit -> string
(** CPUTask branch structure and an example explored state tree
    (paper Figure 3). *)

val fig4 :
  ?budget:float -> ?seed:int -> ?models:string list -> ?pool:Pool.t ->
  ?jobs:int -> unit -> string * (string * string) list
(** Decision-coverage-versus-time panels for each model (paper
    Figure 4).  Returns the rendered panels and, per model, a CSV dump
    of the series ((model, csv) pairs). *)

type f4_curve = {
  f4_tool : string;
    (** the tool's self-reported name, carried for the CSV dump *)
  f4_timeline : (float * float) list;
  f4_markers : (float * Stcg.Testcase.origin) list;
}
(** Outcome of one (model, tool) Figure 4 run. *)

val fig4_njobs : ?models:string list -> unit -> int

val fig4_curves :
  ?budget:float -> ?seed:int -> ?models:string list -> ?pool:Pool.t ->
  ?jobs:int -> ?stripe:int * int -> unit -> (int * f4_curve) list
(** Execute (a stripe of) the Figure 4 matrix; same contract as
    {!table3_cells}. *)

val fig4_of_curves :
  ?budget:float -> ?models:string list -> f4_curve list ->
  string * (string * string) list
(** Rebuild {!fig4}'s result from the full curve list in matrix order. *)

val ablations :
  ?budget:float -> ?seeds:int list -> ?models:string list -> ?pool:Pool.t ->
  ?jobs:int -> unit -> string
(** Ablation study over STCG's design choices: depth-sorted targets,
    state-aware (constant) solving, the random-sequence fallback, and
    the random-first hybrid from the paper's Discussion. *)

val ab_default_seeds : int list
(** The seed list {!ablations} averages over by default ([1..3]). *)

type ab_cell = { ab_decision : float; ab_time : float }
(** Outcome of one (model, variant, seed) ablation run. *)

val ablations_njobs : ?seeds:int list -> ?models:string list -> unit -> int

val ablations_cells :
  ?budget:float -> ?seeds:int list -> ?models:string list -> ?pool:Pool.t ->
  ?jobs:int -> ?stripe:int * int -> unit -> (int * ab_cell) list
(** Execute (a stripe of) the ablation matrix; same contract as
    {!table3_cells}. *)

val ablations_of_cells :
  ?budget:float -> ?seeds:int list -> ?models:string list -> ab_cell list ->
  string
(** Rebuild {!ablations}'s result from the full cell list in matrix
    order. *)
