(** Runtime values and signal types of the SLIM modeling language.

    SLIM signals carry booleans, bounded integers, bounded reals, or
    fixed-size vectors thereof.  Bounds on scalar types double as input
    domains for the constraint solver. *)

type t =
  | Bool of bool
  | Int of int
  | Real of float
  | Vec of t array
      (** mutable in place; copy before sharing.  Execution gives vectors
          value semantics by copying on every store. *)

type ty =
  | Tbool
  | Tint of { lo : int; hi : int }  (** inclusive bounds *)
  | Treal of { lo : float; hi : float }  (** inclusive bounds *)
  | Tvec of ty * int  (** element type and fixed length *)

exception Type_error of string

(** [type_error fmt ...] raises {!Type_error} with a formatted message. *)
val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** {1 Type helpers} *)

(** Unbounded-ish convenience domains. *)
val tint : ty
(** [tint] is a generous default integer domain [-1_000_000, 1_000_000]. *)

val treal : ty
(** [treal] is a generous default real domain [-1e6, 1e6]. *)

val tint_range : int -> int -> ty
val treal_range : float -> float -> ty

val default_of_ty : ty -> t
(** Zero / false / zero-filled vector of the given type. *)

val member : ty -> t -> bool
(** [member ty v] checks that [v] structurally fits [ty], bounds included. *)

val ty_compatible : ty -> ty -> bool
(** Same shape, ignoring scalar bounds. *)

val pp_ty : ty Fmt.t

(** {1 Value accessors} *)

val to_bool : t -> bool
val to_int : t -> int
(** Truncates reals; raises {!Type_error} on vectors. *)

val to_real : t -> float
val to_vec : t -> t array

val copy : t -> t
(** Deep copy ([Vec] payloads are mutable).  Scalars are returned as
    they are: they are immutable, so copying one costs nothing. *)

val int : int -> t
(** [int n] is [Int n].  For [n] in [-256, 1023] it is one shared,
    preallocated value, so it allocates nothing; outside that range it
    allocates as [Int n] does.  The arithmetic below builds its integer
    results with it.  Scalars are immutable, so sharing is not
    observable except through physical equality. *)

val equal : t -> t -> bool
val compare_num : t -> t -> int
(** Numeric comparison of scalars (int/real mixed); raises on bool/vec. *)

(** {1 Arithmetic}

    Mixed int/real operands promote to real, as Simulink does for doubles. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Integer division truncates toward zero; division by zero raises
    {!Type_error}. *)

val modulo : t -> t -> t
val min_v : t -> t -> t
val max_v : t -> t -> t
val neg : t -> t
val abs_v : t -> t
val floor_v : t -> t
val ceil_v : t -> t
val clamp : lo:float -> hi:float -> t -> t

(** {1 Printing and parsing} *)

val pp : t Fmt.t
val to_string : t -> string

val of_string : ty -> string -> t
(** Parse the output of {!to_string} back, guided by the expected type.
    Raises {!Type_error} on malformed input. *)

(** {1 Random generation} *)

val random : Random.State.t -> ty -> t
(** Uniform sample inside the type's domain. *)

val random_int : Random.State.t -> int -> int -> int
(** [random_int rng lo hi]: uniform in [lo, hi], for any [lo <= hi]
    (the full int range included).  Below 2{^30} values it draws as
    [lo + Random.State.int rng (hi - lo + 1)] does.  Raises
    [Invalid_argument] when [lo > hi]. *)

val random_real : Random.State.t -> float -> float -> float
(** [random_real rng lo hi]: [lo +. Random.State.float rng (hi -. lo)]
    while that width is finite; otherwise a draw that stays in
    [lo, hi] instead of overflowing to an infinity. *)
