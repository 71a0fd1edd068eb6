(** Static verdicts for coverage objectives.

    Classifies every objective of the three criteria from an
    {!Analyzer.result}:

    - a {b branch} is [Dead] when its reach is [Never], [Reachable] when
      [Must];
    - a {b condition} objective (decision, atom, value) is [Dead] when
      the decision is unreachable or the atom's abstract value excludes
      [value]; [Reachable] when the decision is [Must]-reached and the
      atom is constantly [value];
    - an {b MCDC} objective (decision, atom) is [Dead] when the decision
      is unreachable, the atom is constant, or the whole guard is
      constant (no pair of vectors can differ in outcome).

    [Dead] inherits the analyzer's soundness contract: no execution
    whose inputs conform to their declared domains can ever cover a
    [Dead] objective, so the engine may skip it and coverage reporting
    may justify it (excluded from denominators), mirroring dead-logic
    justification in SLDV-style flows. *)

type t = Reachable | Dead | Unknown

type summary = {
  v_result : Analyzer.result;
  v_branches : (Slim.Branch.key * t) list;  (** syntactic order *)
  v_conditions : ((int * int * bool) * t) list;
      (** ((decision, atom, value), verdict), [If] decisions only *)
  v_mcdc : ((int * int) * t) list;  (** ((decision, atom), verdict) *)
}

val of_result : Analyzer.result -> summary
val of_program : ?config:Analyzer.config -> Slim.Ir.program -> summary

val branch : summary -> Slim.Branch.key -> t
(** Defaults to [Unknown] for unknown keys. *)

val condition : summary -> int -> int -> bool -> t
val mcdc : summary -> int -> int -> t

val dead_branches : summary -> Slim.Branch.key list
val dead_conditions : summary -> (int * int * bool) list
val dead_mcdc : summary -> (int * int) list

val counts : summary -> t -> int * int * int
(** [(branches, conditions, mcdc)] objectives with the given verdict. *)

val pp : t Fmt.t
