(** Runtime coverage accumulation.

    A tracker consumes {!Slim.Exec.event}s (feed {!observe} as the
    [on_event] callback of {!Slim.Exec.run_step}) and accumulates the
    three criteria over the program's objectives:

    - {b Decision coverage}: every branch (then/else of each [If], every
      case and the default of each [Switch]) executes.
    - {b Condition coverage}: every atomic condition of every [If] guard
      evaluates to both true and false.
    - {b MC/DC}: every atomic condition is shown to independently affect
      its decision's outcome.  This is unique-cause MC/DC extended with
      masking: a pair of observed condition vectors shows the
      independence of condition [i] when the outcomes differ, [i]
      differs, and every other differing condition is masked (flipping
      it alone changes neither vector's outcome under
      {!Slim.Exec.guard_fn}).

    It keeps its objectives by the program's objective index
    ({!Slim.Exec.branch_id}): bitsets for branches, condition outcomes
    and MC/DC pairs, and one table of condition vectors per decision.
    Observing an event that adds nothing allocates nothing. *)

type t

val create : Slim.Ir.program -> t

val observe : t -> Slim.Exec.event -> unit
(** Raises [Invalid_argument] on an event that does not belong to the
    tracker's program. *)

val set_justified :
  t ->
  branches:Slim.Branch.key list ->
  conditions:(int * int * bool) list ->
  mcdc:(int * int) list ->
  unit
(** Mark objectives as justified (proven dead by static analysis).
    Justified objectives are excluded from every denominator, from
    {!uncovered_branches} and {!uncovered_mcdc}, and from
    {!fully_covered} — the SLDV-style dead-logic justification the
    paper's coverage tables assume.  Replaces any previous
    justification. *)

val justified_counts : t -> int * int * int
(** [(branches, conditions, mcdc)] objectives currently justified. *)

val progress : t -> int
(** Monotone stamp, bumped only when an observation adds genuinely new
    information (new branch, condition outcome or condition vector) —
    lets clients cache derived structures. *)

val covered_branches : t -> Slim.Branch.Key_set.t
val is_branch_covered : t -> Slim.Branch.key -> bool

type mark
(** A point in the tracker's branch history. *)

val mark : t -> mark

val fresh_since : t -> mark -> Slim.Branch.Key_set.t
(** Branches first covered after the mark was taken: the difference of
    {!covered_branches} now and then, computed without a set diff.  The
    empty set, with no allocation, when there are none.  A mark taken
    on a tracker stays valid on its {!copy}. *)

type ratio = { covered : int; total : int }

val pct : ratio -> float
(** Percentage; 100.0 when [total = 0]. *)

val decision : t -> ratio
val condition : t -> ratio
val mcdc : t -> ratio

val uncovered_branches : t -> Slim.Branch.t list

val is_condition_covered : t -> int -> int -> bool -> bool
(** [is_condition_covered t decision atom value] — has atom [atom] of
    decision [decision] been observed with the given truth value? *)

val observed_vectors : t -> int -> (bool array * bool) list
(** Condition vectors (with outcomes) observed for a decision, as fresh
    arrays.  The order is fixed by the observation history (the
    engine's dynamic MC/DC sweep proposes flips in it). *)

val is_vector_observed : t -> int -> bool array -> bool
(** [is_vector_observed t decision vector]: one probe, no allocation. *)

val uncovered_mcdc : t -> (int * int) list
(** (decision, atom) pairs whose independent effect is not yet shown. *)

val fully_covered : t -> bool
(** All branches covered (decision coverage complete). *)

val copy : t -> t
(** Independent clone (used for what-if executions). *)

val pp_summary : t Fmt.t
