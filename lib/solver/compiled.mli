(** A constraint compiled once for the CSP sampler: an evaluator over
    unboxed registers, the first of which hold the candidate.

    Evaluating a candidate gives what a tree walk over the term
    ([Fuzzer.Term_eval]) gives on the assignment it stands for: the
    same value, or a raise of {!Slim.Value.Type_error} or [Not_found]
    (an unbound name, when it is reached) in the same cases.  [&&],
    [||] and [Ite] skip the operand the walk skips, and a shared node is
    computed once per candidate.  On booleans and ints, evaluation allocates nothing. *)

type t

val compile : Hc4.layout -> Term.t -> t
(** One input register per slot of the layout; a name reads the slot
    it resolves to. *)

val set_bool : t -> int -> bool -> unit
val set_int : t -> int -> int -> unit
val set_real : t -> int -> float -> unit
val set_input : t -> int -> Slim.Value.t -> unit
(** [set_* p i v]: input [i] of the candidate is [v].  A vector input
    is accepted as the constant it is. *)

val input : t -> int -> Slim.Value.t
(** The value of input [i], boxed. *)

val holds : t -> bool
(** Whether the candidate evaluates to [Bool true]; raises as the
    evaluation does. *)

val result : t -> Slim.Value.t
(** The candidate's value, boxed; raises as the evaluation does. *)
