(** Model branches (paper Definition 1).

    A branch is one outcome of a decision: the [then] or [else] side of an
    [If], or one case (or the default) of a [Switch].  Each branch knows
    its parent branch (the innermost enclosing branch) and its depth (the
    number of ancestor branches), which STCG uses to sort solving
    targets shallow-first.  A program's branch table is built by its
    lowering ({!Lower.t.branches}) and read through {!Exec.branches}. *)

type outcome = Then | Else | Case of int | Default

type key = int * outcome
(** (decision id, outcome) — globally unique within a program. *)

type t = {
  key : key;
  decision : int;  (** decision id of the owning [If]/[Switch] *)
  outcome : outcome;
  guard : Ir.expr;  (** the [If] guard or [Switch] scrutinee *)
  parent : key option;
  depth : int;
}

val equal_key : key -> key -> bool
val compare_key : key -> key -> int
val pp_outcome : outcome Fmt.t
val pp_key : key Fmt.t
val pp : t Fmt.t

val sort_by_depth : t list -> t list
(** Stable sort, shallow branches first (paper Section III-A). *)

module Key_set : Set.S with type elt = key
