(** Path exploration for branch-targeted symbolic execution.

    {!solve_branch} is the paper's state-aware solving primitive
    (Algorithm 1, line 10): one iteration of the model, state fixed to
    a snapshot's constants, inputs symbolic.  Because the IR is
    loop-free, the target branch's ancestor chain is statically known;
    only decisions off that chain fork paths.

    {!solve_branch_multi} is the SLDV-style counterpart: [horizon]
    steps are unrolled with the state threaded symbolically, so path
    count and term size grow with depth — the cost structure that
    motivates STCG. *)

type cost = {
  mutable paths_explored : int;
  mutable solver_nodes : int;
  mutable solver_calls : int;
  mutable term_nodes : int;  (** total constraint size submitted *)
}

type outcome =
  | Sat of Slim.Exec.inputs list
      (** slot-addressed input vector per step ({!Slim.Exec} positional
          contract); singleton for one-step solving *)
  | Unsat
  | Unknown

type config = {
  max_paths : int;  (** fork budget per query *)
  node_budget : int;  (** total solver node budget per query *)
  rng_seed : int;
  hc4_memo : bool;
      (** enable the HC4 projection memo (default [true]); results are
          bit-identical either way — test escape hatch only *)
}

val default_config : config

(** Coverage objectives the one-step solver can aim at. *)
type target =
  | Branch_target of Slim.Branch.key
      (** reach this branch (decision coverage) *)
  | Condition_target of { decision : int; atom : int; value : bool }
      (** evaluate the decision's guard with atom [atom] = [value] *)
  | Vector_target of { decision : int; vector : bool array }
      (** evaluate the guard with this exact condition vector (used to
          complete MCDC independence pairs) *)

val pp_target : target Fmt.t

type memo
(** The propagated path-condition prefixes of the solves it is passed
    to, and the CSP answers to their path conditions ({!Solver.Csp.memo}),
    kept across them.  A memo never changes an outcome, a cost, an RNG
    draw or a counter other than [solver.hc4_rounds],
    [solver.hc4_memo_hits] and its own [symexec.prefix_memo_hits],
    [_misses] and [_clears] and [solver.memo_hits] and [_clears]: it
    only saves propagations and repeated CSP solves.  A repeated query
    is looked up before the solve makes its RNG, so a replay makes
    none.  The two halves check their variable list and [hc4_memo]
    binding apart, so each clears only on its own account.  Make one
    per engine run (or fuzz case), on the domain that runs it; it keeps
    its boxes and answers alive until it is dropped. *)

val create_memo : unit -> memo

val solve_target :
  ?config:config ->
  ?symbolic_state:bool ->
  ?memo:memo ->
  Slim.Ir.program ->
  state:Slim.Exec.state ->
  target:target ->
  outcome * cost
(** One-step state-aware solving of any coverage objective.  The branch
    table and requirement chains come from the program's compiled handle
    ({!Slim.Exec.handle}), so repeated solves pay no per-call setup.
    Without [memo] the solve uses a fresh one of its own. *)

val solve_branch :
  ?config:config ->
  ?symbolic_state:bool ->
  Slim.Ir.program ->
  state:Slim.Exec.state ->
  target:Slim.Branch.key ->
  outcome * cost
(** One-step, state-aware.  [Sat [inputs]] drives the model from
    [state] into the target branch.  With [symbolic_state:true] the
    state is treated as a solver unknown instead of constants — the
    ablation of the paper's key idea: answers may then be unrealizable
    from the actual state. *)

val solve_branch_multi :
  ?config:config ->
  Slim.Ir.program ->
  horizon:int ->
  target:Slim.Branch.key ->
  outcome * cost
(** Multi-step from the initial model state.  [Unsat] means "not
    coverable within [horizon] steps".  Each call uses a fresh memo. *)

val relevant_state_slots : Slim.Ir.program -> bool array
(** One flag per declared state variable (positional, the
    {!Slim.Exec.state} slot order): [false] means the slot provably
    cannot influence any {!solve_target} outcome — it never flows into
    a guard, scrutinee or index position.  Conservative (flow-
    insensitive backward slice over the slots of {!Slim.Lower}, so a
    state declaration that no name resolves to is never relevant), so
    [true] is always safe.  The engine
    uses this to key its solve cache on the projection of the state
    snapshot onto relevant slots. *)
