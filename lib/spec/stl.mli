(** STL-style temporal requirements over model output traces.

    A requirement is a step-bounded temporal formula over the {e output
    signals} of a compiled model: atomic comparisons of arithmetic
    signal expressions, boolean connectives, and the discrete-time
    temporal operators [always\[a,b\]], [eventually\[a,b\]] and
    [until\[a,b\]] whose bounds count {!Slim.Exec} steps.

    The semantics is quantitative (Fainekos–Pappas robustness): every
    formula denotes a real number whose {e sign} decides boolean
    satisfaction — positive robustness implies the trace satisfies the
    formula, negative implies it violates it (zero is the boundary and
    decides neither).

    Finite traces use clamped-window semantics: at evaluation time [t]
    over a trace of [n] steps, a temporal window [\[a,b\]] denotes the
    step interval [\[min (t+a) (n-1), min (t+b) (n-1)\]] — never empty,
    matching the discrete conventions of Breach/S-TaLiRo.  A top-level
    evaluation at [t = 0] is horizon-complete when [n > horizon f]. *)

type sig_expr =
  | Sig of string  (** named scalar model output; booleans read as 0/1 *)
  | Const of float
  | Add of sig_expr * sig_expr
  | Sub of sig_expr * sig_expr
  | Mul of sig_expr * sig_expr
  | Neg of sig_expr
  | Abs of sig_expr
  | Min of sig_expr * sig_expr
  | Max of sig_expr * sig_expr

type cmp = Le | Lt | Ge | Gt | Eq

type formula =
  | Atom of cmp * sig_expr * sig_expr
      (** robustness: [Le]/[Lt] → rhs - lhs, [Ge]/[Gt] → lhs - rhs,
          [Eq] → -|lhs - rhs| (never positive) *)
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula
  | Always of int * int * formula  (** [always\[a,b\] f] *)
  | Eventually of int * int * formula
  | Until of int * int * formula * formula
      (** [until\[a,b\] f g]: some [τ] in the window satisfies [g] and
          [f] holds at every step of [\[t, τ\]] *)

(** {1 Structure} *)

val horizon : formula -> int
(** Steps of trace needed beyond the evaluation point: a top-level
    robustness at step 0 is window-complete iff the trace has at least
    [horizon f + 1] steps. *)

val signals : formula -> string list
(** Output-signal names read by the formula, sorted, without
    duplicates. *)

val validate :
  outputs:(string * Slim.Value.ty) list -> formula -> (unit, string) result
(** Check the formula against a model's output interface: every
    temporal bound must satisfy [0 <= a <= b], and every {!Sig} must
    name a declared {b scalar} output (bool, int or real — vector
    outputs are not addressable).  The error message names the first
    offending bound or signal. *)

(** {1 Canonical text}

    A one-line s-expression rendering for diagnostics, with floats
    printed [%.17g]. *)

val to_string : formula -> string
