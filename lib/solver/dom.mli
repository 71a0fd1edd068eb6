(** Abstract domains for solver variables: boolean three-valued domains
    and closed numeric intervals. *)

type t =
  | Dbool of { can_true : bool; can_false : bool }
  | Dint of { lo : int; hi : int }  (** inclusive, [lo <= hi] *)
  | Dreal of { lo : float; hi : float }  (** inclusive, [lo <= hi] *)

exception Empty
(** Raised by narrowing operations when a domain becomes empty. *)

val of_ty : Slim.Value.ty -> t
(** Scalar types only; raises {!Slim.Value.Type_error} on vectors. *)

val top_bool : t
val bool_true : t
val bool_false : t
(** The three non-empty boolean domains.  Every boolean domain this
    module builds, and every one {!Interval} builds, is one of these
    shared values, so making one allocates nothing. *)

val booln : bool -> t
(** [bool_true] or [bool_false]. *)

val bool_of : bool -> bool -> t
(** [bool_of can_true can_false]: the shared value when non-empty. *)

val intn : int -> int -> t
val realn : float -> float -> t

val int_of_float_up : float -> int
val int_of_float_down : float -> int
(** [ceil] / [floor] to int, saturating at +-1e18: plain
    [int_of_float] wraps past [max_int], which can invert an interval
    and make a satisfiable box look empty. *)

val is_singleton : t -> bool
val singleton_value : t -> Slim.Value.t option
val member : t -> Slim.Value.t -> bool

val meet : t -> t -> t
(** Intersection; raises {!Empty}. *)

val hull : t -> t -> t
(** Convex union. *)

val width : t -> float
(** 0 for singletons; used to pick split variables. *)

val int_mid : int -> int -> int
(** Midpoint of an int interval, [lo + (hi - lo) / 2] unless [hi - lo]
    overflows; always in [lo, hi]. *)

val real_mid : float -> float -> float
(** Midpoint of a real interval: [lo +. (hi -. lo) /. 2.] while the
    width is finite; otherwise a point of [lo, hi] computed without
    overflow (an infinite side is cut at a finite point). *)

val split : t -> (t * t) option
(** Bisect a non-singleton domain; [None] for singletons.  Integer
    domains split on the midpoint; boolean domains into the two
    constants; real domains bisect at {!real_mid} (down to a width
    floor), so no child is inverted or leaves its parent. *)

val splittable : t -> bool
(** [split d <> None], without allocating. *)

val lower : t -> t
val upper : t -> t
(** The halves {!split} returns, for a [splittable] domain. *)

val widest : t array -> int array -> int
(** [widest doms slots]: the first [i] whose [doms.(slots.(i))] is
    [splittable] and of the greatest {!width} above 0 among those, or
    -1 when there is none.  It allocates nothing. *)

val sample : t -> Slim.Value.t list
(** Candidate concrete values to try, most promising first (bounds,
    midpoint, zero when contained). *)

val pp : t Fmt.t

val equal : t -> t -> bool
(** Structural equality with float [=] on real bounds, as polymorphic
    [=] gives ([nan] differs from itself, [-0.] equals [0.]). *)
