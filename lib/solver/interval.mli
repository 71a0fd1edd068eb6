(** Shared interval arithmetic over the {!Dom} lattice.

    A [num] is a closed float interval uniform over int and real
    operands ([nint] records that every member is integral, which lets
    bounds tighten to the contained integers; read it through
    {!is_int}).  The operations are the
    conservative (over-approximating) transfer functions used both by
    the HC4 propagator ({!Hc4}) and by the abstract interpreter in
    [lib/analysis]: for any values [x] in [a] and [y] in [b], the
    concrete result of the operation on [x] and [y] lies in the
    returned interval.

    Degenerate (point) intervals are handled exactly where the concrete
    operation is a function of its operands: [nmod] on two singletons
    returns the singleton of {!Slim.Value.modulo}'s MATLAB-style
    result, and [nabs]/[nneg] are exact on points by construction.

    Constructors raise {!Dom.Empty} when the interval would be empty
    ([nlo > nhi]). *)

type num = { nlo : float; nhi : float; nint : float }
(** All three fields are floats so that OCaml stores the record flat,
    as one block of unboxed doubles: a [num] costs 4 words, where a
    [bool] flag would force a block of pointers to three 3-word boxed
    floats.  [nint] is [1.0] when every member is an integer and [0.0]
    otherwise; build it with {!int_flag} and test it with {!is_int}. *)

val int_flag : bool -> float
(** [1.0] for [true], [0.0] for [false]. *)

val is_int : num -> bool
(** Every member of the interval is an integer. *)

val ntop : num
(** A huge two-sided interval ([±1e18], non-integer) used where no
    better bound is available.  Note this is a solver-internal top:
    clients that must over-approximate arbitrary runtime floats (the
    static analyzer) widen to infinities instead. *)

val nmk : bool -> float -> float -> num
(** [nmk nint lo hi]; raises {!Dom.Empty} if [lo > hi]. *)

val nadd : num -> num -> num
val nsub : num -> num -> num
val nmul : num -> num -> num

val ndiv : num -> num -> num
(** Division; returns {!ntop} when the divisor interval contains zero
    (concrete division by exactly zero raises, other small divisors are
    a solver concern only — see the module comment on {!ntop}). *)

val nmod : num -> num -> num
(** MATLAB-style modulo: the result's sign follows the divisor.  Exact
    on point operands (matching {!Slim.Value.modulo}); otherwise
    one-sided when the divisor's sign is known. *)

val nneg : num -> num
val nabs : num -> num
val nmin : num -> num -> num
val nmax : num -> num -> num
val nfloor : num -> num
val nceil : num -> num

val ntrunc : num -> num
(** Truncation toward zero (the [To_int] coercion). *)

val nmeet : num -> num -> num
(** Intersection; raises {!Dom.Empty} when disjoint. *)

val num_of_dom : Dom.t -> num
(** Booleans coerce to the 0/1 interval. *)

val dom_of_num : num -> Dom.t
(** Integer bounds tighten inward to the contained integers and
    saturate at [±1e18] (see {!Dom.int_of_float_up}). *)

val num_of_value : Slim.Value.t -> num
(** Point interval of a scalar value. *)

(** {1 Three-valued booleans} *)

type bool3 = { bt : bool; bf : bool }
(** [bt]: the expression may be true; [bf]: it may be false. *)

val b3_top : bool3
val b3_true : bool3
val b3_false : bool3

val b3 : bool -> bool -> bool3
(** [b3 bt bf] is one of four shared values: the three above and the
    neither-value.  Every [bool3] this module returns is one of them,
    so none allocates. *)

val b3_of_dom : Dom.t -> bool3
(** Ints and reals coerce as [(<> 0)]. *)

val dom_of_b3 : bool3 -> Dom.t
(** One of {!Dom}'s shared boolean domains.  Raises {!Dom.Empty} on the
    (unsatisfiable) neither-value case. *)

val b3_and : bool3 -> bool3 -> bool3
val b3_or : bool3 -> bool3 -> bool3
val b3_not : bool3 -> bool3

val b3_meet : bool3 -> bool3 -> bool3
(** Raises {!Dom.Empty} when the intersection is empty. *)

val b3_join : bool3 -> bool3 -> bool3
