(** The STCG engine: the paper's Figure 2 loop.

    Two parts alternate until every branch is covered or the virtual
    budget runs out:

    - {b State-aware solving} (Algorithm 1): walk uncovered branches
      (shallow first) and state-tree nodes; solve one model iteration
      with the node's state fixed as constants.
    - {b Dynamic execution} (Algorithm 2): run the solved input from the
      chosen state (or, when nothing solves, a random sequence of
      previously solved inputs from a random node); record new states as
      tree children; synthesize a test case whenever new coverage
      appears. *)

type config = {
  seed : int;
  budget : float;  (** virtual seconds (paper: 3600) *)
  random_seq_len : int;  (** N of Algorithm 2 (random sequence length) *)
  solver : Symexec.Explore.config;
  sort_branches : bool;  (** depth sort of Section III-A; off = ablation *)
  state_aware : bool;  (** off = solve with symbolic state (ablation) *)
  random_fallback : bool;  (** off = skip Algorithm 2's random mode (ablation) *)
  random_first : bool;
      (** hybrid from the paper's Discussion: a random exploration phase
          before solving starts *)
  random_first_rounds : int;
  max_tree_nodes : int;
  analyze : bool;
      (** run the static analyzer first: proven-dead objectives are
          justified in the tracker ({!Coverage.Tracker.set_justified})
          and skipped by the solving loop *)
  verdict_priority : bool;
      (** verdict-priority worklist: statically [Reachable] objectives
          are solved first (original depth order within each class), and
          one-step queries a recording pass from the node's snapshot
          proves Unsat are pruned without calling the solver.  The prune
          replays the solver's Unsat bookkeeping exactly, so the test
          cases of a [Full_coverage] run are identical with the flag on
          or off (up to [found_at] timestamps — pruned solves charge no
          virtual time) *)
  analysis_config : Analysis.Analyzer.config;
      (** abstract domain for every engine-side analysis (the startup
          verdicts of [analyze] and the static prune of
          [verdict_priority]) *)
}

val default_config : config

type solve_result = [ `Sat | `Unsat | `Unknown ]

type event =
  | Ev_testcase of Testcase.t
  | Ev_solve of {
      time : float;
      target : Symexec.Explore.target;
      node : int;
      result : solve_result;
    }
  | Ev_random_exec of { time : float; node : int; len : int }
  | Ev_coverage of { time : float; decision_covered : int }
      (** emitted whenever the covered-branch count increases *)

type stop_reason = Full_coverage | Budget_exhausted

type run = {
  r_config : config;
  r_testcases : Testcase.t list;  (** in discovery order *)
  r_tracker : Coverage.Tracker.t;
  r_tree : State_tree.t;
  r_events : event list;  (** in chronological order *)
  r_clock : Vclock.t;
  r_stop : stop_reason;
}

val run : ?config:config -> Slim.Ir.program -> run

val coverage_timeline : run -> (float * float) list
(** (virtual time, decision coverage percentage) points, increasing —
    one Figure 4 series. *)
