(** Parameterized input-signal generators.

    A {!plan} fixes the search space for one compiled model: a trace
    length in steps, a number of segments, and a shape — {e
    piecewise-constant} (the value of segment [k] is held for its whole
    span; the SimCoTest baseline's seed shape) or {e piecewise-linear}
    (segment parameters are control points, interpolated between).

    Every scalar input variable contributes [segments] float parameters
    ranged over the variable's declared domain, flattened into one
    [float array] so the falsification search can treat a candidate as a
    point in a box.  {!render} turns a parameter vector into the
    concrete per-step input arrays fed to {!Slim.Exec.run_sequence}:
    bools threshold at 0.5, ints round to nearest, reals clamp to their
    declared bounds.  Vector-typed inputs are not searched and keep
    their default value. *)

type shape = Piecewise_constant | Piecewise_linear

val shape_name : shape -> string
(** ["pwc" | "pwl"]. *)

val shape_of_name : string -> shape option

type plan

val plan : Slim.Exec.t -> shape:shape -> steps:int -> segments:int -> plan
(** Raises [Invalid_argument] unless [steps >= 1] and
    [1 <= segments <= steps]. *)

val n_params : plan -> int
val steps : plan -> int
val exec : plan -> Slim.Exec.t

val domain : plan -> int -> float * float
(** Inclusive parameter box for coordinate [i]. *)

val random_params : plan -> Util.Splitmix.t -> float array
(** Uniform point in the box; draws parameters in coordinate order
    (stable PRNG consumption). *)

val render : plan -> float array -> Slim.Exec.inputs list
(** Concrete inputs for each of the plan's steps.  Raises
    [Invalid_argument] on a parameter vector of the wrong length. *)
