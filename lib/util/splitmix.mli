(** A hand-rolled splittable PRNG (SplitMix64, Steele–Lea–Flood 2014).

    The fuzzer and the falsification search need reproducibility
    properties the stdlib [Random] does not give cheaply:

    - {b determinism}: the same integer seed yields the same stream on
      every platform and OCaml version (the stdlib reserves the right
      to change its algorithm);
    - {b splittability}: [split] derives an independent child stream,
      so "the model of case [i]" and "the inputs of case [i]" each get
      their own generator and shrinking one consumer never perturbs
      the draws of another.

    Generators are mutable; [copy] snapshots one.  All operations are
    allocation-free except [split]/[copy]. *)

type t

val create : int -> t
(** Seed a generator.  Distinct seeds give (with overwhelming
    probability) disjoint streams. *)

val split : t -> t
(** Advance [t] once and return a fresh generator whose stream is
    independent of [t]'s subsequent draws. *)

val copy : t -> t
(** Duplicate the current state without advancing it. *)

val mix_seed : int -> int -> int
(** [mix_seed s i] derives the seed of job [i] of a campaign seeded
    with [s]: two finalizer rounds, so neighbouring jobs share no
    structure and a job's stream does not depend on the job count. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] — uniform in [\[0, bound)]; [bound] must be > 0. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] — uniform in [\[lo, hi\]] (inclusive). *)

val bool : t -> bool

val float : t -> float -> float
(** [float t x] — uniform in [\[0, x)]. *)

val float_in : t -> float -> float -> float
(** Uniform in [\[lo, hi\]]. *)

val choose : t -> 'a list -> 'a
(** Uniform pick; raises [Invalid_argument] on the empty list. *)

val weighted : t -> (int * 'a) list -> 'a
(** Pick with the given relative integer weights (all >= 0, sum > 0). *)
