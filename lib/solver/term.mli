(** Solver terms: scalar constraints over named decision variables,
    hash-consed into a DAG.

    Terms mirror the SLIM IR expression language minus [Index]: the
    symbolic executor eliminates array reads before constraints reach
    the solver (constant arrays fold; symbolic indices over constant
    arrays expand to [Tite] chains).  Smart constructors fold constants
    aggressively — this folding is what makes state-aware solving cheap,
    because state variables arrive as constants.

    Every term is interned in a per-domain hashcons table, so
    structurally equal terms (after normalization) are physically equal:
    {!equal} is [==], {!hash}/{!size} are O(1) stored fields, and {!id}
    is a never-reused per-domain identifier suitable as a memo key.
    A small direct-mapped cache of strong references (256 slots) sits in
    front of the weak table, so rebuilding a recently built term
    allocates nothing.  A cached term is live and therefore still in the
    weak table, so the cache returns the very node the table would:
    uniqueness and ids are unaffected.  It keeps up to 256 terms, with
    their subterms, alive past their last other reference.
    Construction additionally normalizes commutative operands ([+],
    [*], [&&], [||], [=], [<>]) into a canonical order decided by the
    deterministic structural hash ({!hash}) with {!compare_structural}
    as tie-break — never by ids, so term shapes are identical across
    runs, domains and worker counts.  Terms never cross domains (no
    result type carries one), which is what makes the domain-local
    table safe. *)

type t = private {
  id : int;  (** unique per domain; never reused *)
  node : node;
  hkey : int;  (** deterministic structural hash, {!hash} *)
  tsize : int;  (** saturating tree size, {!size} *)
}

and node =
  | Cst of Slim.Value.t
  | Tvar of string
  | Tunop of Slim.Ir.unop * t
  | Tbinop of Slim.Ir.binop * t * t
  | Tcmp of Slim.Ir.cmpop * t * t
  | Tand of t * t
  | Tor of t * t
  | Tnot of t
  | Tite of t * t * t

val view : t -> node

val cst : Slim.Value.t -> t
val cbool : bool -> t
val cint : int -> t
val creal : float -> t
val var : string -> t

(** Folding constructors: constant subterms are evaluated away. *)

val unop : Slim.Ir.unop -> t -> t
val binop : Slim.Ir.binop -> t -> t -> t
val cmp : Slim.Ir.cmpop -> t -> t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val not_ : t -> t
val ite : t -> t -> t -> t

val eval_unop : Slim.Ir.unop -> Slim.Value.t -> Slim.Value.t
val eval_binop : Slim.Ir.binop -> Slim.Value.t -> Slim.Value.t -> Slim.Value.t
val eval_cmp : Slim.Ir.cmpop -> Slim.Value.t -> Slim.Value.t -> bool
(** The folds {!unop}, {!binop} and {!cmp} apply to constant operands:
    each raises {!Slim.Value.Type_error} where the constructor keeps the
    node unfolded instead. *)

val is_const : t -> Slim.Value.t option
val conj : t list -> t

val vars : t -> string list
(** Free variables, sorted, without duplicates; DAG traversal (each
    shared node visited once). *)

val size : t -> int
(** Tree node count (saturating far above every caller's cap) — used
    for virtual-time cost accounting.  O(1). *)

val size_capped : int -> t -> int
(** [min cap (size t)], exactly what the pre-DAG streaming counter
    returned.  O(1). *)

val pp : t Fmt.t

val equal : t -> t -> bool
(** Physical equality — equivalent to structural equality (modulo
    normalization) for terms built on the same domain. *)

val compare : t -> t -> int
(** Total order by {!id}: fast, but allocation-order dependent.  Use
    {!compare_structural} when the order must be deterministic. *)

val compare_structural : t -> t -> int
(** Deterministic structural total order (never consults ids); the
    tie-break of the canonical commutative-operand order. *)

val hash : t -> int
(** Stored deterministic structural hash; the primary key of the
    canonical commutative-operand order. *)

val id : t -> int
(** The hashcons id: equal terms have equal ids (per domain), and ids
    are never reused, so [(… , id t)] pairs are sound memo keys. *)
