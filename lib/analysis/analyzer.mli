(** Flow-sensitive abstract interpretation of a SLIM step program.

    The analyzer runs the step body over abstract values ({!Absval}):
    inputs are the tops of their declared domains, locals and outputs
    start from their per-step defaults, and the persistent state is
    iterated to a fixpoint — join for the first rounds, then interval
    widening ({!Absval.widen}) so delays, data stores and chart state
    variables converge.  A final pass over the stabilized state records,
    for every decision, how reachable it is and what its guard (and each
    atomic condition) can evaluate to; the same pass collects the
    {!Diag} diagnostics consumed by the linter.

    {b Soundness contract}: the abstract state of every program point
    over-approximates every concrete execution whose input values lie
    inside their declared domains — the contract all drivers (the
    solver, random generation, the fuzzer, the test-case replayers for
    suites produced by this stack) already maintain.  Consequently
    [Never]-reachability is a proof of concrete unreachability; [Must]
    and [May] are best-effort.  The fuzz campaign cross-checks this
    claim dynamically (the "analysis" oracle). *)

type domain =
  [ `Interval  (** non-relational intervals only (the default) *)
  | `Octagon
    (** additionally track difference-bound relations [±x ± y <= c]
        over a bounded universe of numeric cells ({!Octagon}), reduced
        with the interval slots.  Strictly more precise, and every
        soundness discipline (int-overflow collapse, float rounding
        monotonicity, nan points, weak vector updates) is preserved:
        relational facts are only recorded when exact. *) ]

type config = { domain : domain }

val default_config : config
(** [{ domain = `Interval }] *)

type reach =
  | Never  (** proven unreachable: no conforming execution reaches it *)
  | May  (** the analysis cannot tell *)
  | Must  (** reached on every step of every conforming execution *)

type guard_fact = {
  g_reach : reach;  (** reachability of the decision itself *)
  g_val : Solver.Interval.bool3;  (** what the whole guard can evaluate to *)
  g_atoms : Solver.Interval.bool3 array;
      (** per-atom values, in {!Slim.Ir.atoms_of_condition} order *)
}

type result = {
  r_prog : Slim.Ir.program;
  r_iterations : int;  (** state-fixpoint sweeps (including the final one) *)
  r_widenings : int;  (** sweeps that applied widening *)
  r_branch_reach : (Slim.Branch.key * reach) list;  (** program order *)
  r_guards : (int * guard_fact) list;
      (** [If] decisions in program order ([Switch] decisions have no
          guard fact; their branch entries carry the verdicts) *)
  r_diags : Diag.t list;  (** deterministic order (see {!Diag.sort}) *)
  r_state : (string * Absval.t) list;
      (** the stabilized abstract state, one entry per state variable *)
  r_out : (string * Absval.t) list;
      (** output bounds from the final recording pass, one entry per
          output variable (every path through one step joined) *)
}

val analyze : ?config:config -> Slim.Ir.program -> result
(** Fixpoint analysis of the step program from its initial state. *)

val record_at :
  ?config:config -> Slim.Ir.program -> state:Slim.Value.t array -> result
(** One recording pass from an exact reached snapshot (no fixpoint).
    [Must] facts hold for the single step taken from [state], so when
    the snapshot is concretely reachable they witness reachability;
    [Never] facts are step-local and must not be treated as global
    deadness. *)

val branch_reach : result -> Slim.Branch.key -> reach
(** Defaults to [May] for unknown keys. *)

val guard_fact : result -> int -> guard_fact option
