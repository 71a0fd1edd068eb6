(** Slot-compiled execution core, and the owner of a program's lowering.

    [compile] (or the memoizing [handle]) makes one pass over an
    {!Ir.program}: it builds the program's {!Lower.t}, the slot-resolved
    form that the symbolic executor and the static analyzer walk too,
    compiles that form to slot-addressed closures with O(1) [Switch]
    dispatch, and precomputes from the lowering's branch and decision
    tables the requirement chains, the objective index and each guard's
    atom function.  Steps then execute against flat [Value.t array]s —
    no string hashing, no per-step environment — which is what lets the
    engine spend its virtual-clock budget on exploration instead of
    interpretation overhead.

    Positional contract: slot [i] of a state / input / output array is the
    [i]-th entry of [prog.states] / [prog.inputs] / [prog.outputs].  The
    external test-case format stays name-based; use the slot<->name bridges
    below at the boundary. *)

module Smap : Map.S with type key = string

type state = Value.t array
(** One model state (Definition 2): slot [i] holds the [i]-th declared state
    variable.  Returned arrays are fresh and share no vector with any
    other array (see {!run_step}). *)

type inputs = Value.t array
type outputs = Value.t array

type event =
  | Branch_hit of Branch.key  (** a decision outcome was executed *)
  | Cond_vector of { id : int; vector : bool array; outcome : bool }
      (** an [If] guard was evaluated: per-atom truth values (in
          {!Ir.atoms_of_condition} order) and the guard's value *)
(** Events are shared and must not be mutated.  A guard of at most six
    atoms emits one [Cond_vector] per combination of atom values and
    outcome, built the first time that combination occurs and then the
    same value on every step and in every domain that uses the handle;
    [Branch_hit] events are preallocated per outcome.  A consumer that
    keeps a [vector] may keep it as it is, but must copy it before
    writing to it.  Two domains that reach an unfilled combination at
    once may both build it; each stores a structurally equal event, so
    the unsynchronised fill is idempotent and either result is right. *)

exception Eval_error of string

type t
(** A compiled program handle.  Immutable once built, apart from the
    guards' shared-event tables, which fill on first use with values
    that do not depend on who fills them (see {!event}); freely
    shareable. *)

val compile : Ir.program -> t

val handle : Ir.program -> t
(** Memoizing [compile], keyed on physical equality of the program value.
    Callers that hold one program value and call repeatedly — the normal
    pattern — pay compilation once.

    Domain-safe: the memo is an immutable snapshot array of at most 32
    entries, newest first, published through an [Atomic.t].  A hit is a
    lock-free scan; only a miss takes a lock, to compile and publish a new
    snapshot.  The returned handle is immutable after construction (its
    event tables aside, see {!t}), so one handle may be shared across
    worker domains (the parallel
    harness compiles each model once up front and lets every run reuse
    it). *)

(** {1 Accessors} *)

val lowered : t -> Lower.t
(** The lowering the closures were compiled from. *)

val input_vars : t -> Ir.var array
val output_vars : t -> Ir.var array
val input_slot : t -> string -> int option
(** Position of a name in the inputs (the last declaration, see {!Lower}). *)

val find_input : t -> inputs -> string -> Value.t
(** Name-based lookup; raises {!Eval_error} on unknown names.  For tests and
    boundary code — hot paths index by slot. *)

val find_output : t -> outputs -> string -> Value.t
val find_state : t -> state -> string -> Value.t

(** {1 Branch and decision metadata (precomputed)} *)

val branches : t -> Branch.t list
val find_branch : t -> Branch.key -> Branch.t option

val branch_chain : t -> Branch.key -> (int * Branch.outcome) list
(** Decisions (with required outcomes) that must hold for control to reach
    the branch, root-first, including the branch itself.  Raises
    [Value.Type_error] on an unknown key, like the symbolic explorer. *)

val decision_chain : t -> int -> (int * Branch.outcome) list
(** Ancestor requirements of a decision (excluding the decision itself). *)

(** {1 Objective index}

    Every coverage objective of the program has a dense integer id,
    fixed once per handle:
    - branch [b] is its position in {!branches}, in [0, n_branches);
    - decision [d] has a position in the lowering's [decisions]
      (syntactic pre-order), in [0, n_decisions), and a first atom id
      ([atom_base]); the atoms of [If] guards are numbered
      consecutively, [Switch] decisions have none;
    - MC/DC pair [(d, a)] is [atom_base d + a], in [0, n_atoms);
    - condition outcome [(d, a, v)] is [2 * (atom_base d + a) + v]
      (false = 0, true = 1), in [0, 2 * n_atoms).

    Ids never reach the text formats, which stay name-based. *)

val n_branches : t -> int

val branch_id : t -> Branch.key -> int
(** Raises [Not_found] for a key that is not a branch of the program. *)

val n_decisions : t -> int

val decision_pos : t -> int -> int
(** Position of a decision id in the lowering's [decisions] (the last
    one when an id repeats); raises [Not_found]. *)

val decision_id : t -> int -> int
(** Id of the decision at a position. *)

val atom_base : t -> int -> int
(** First atom id of the decision at a position; [atom_base t
    (n_decisions t)] is {!n_atoms}. *)

val atom_count : t -> int -> int
(** Number of atoms of the decision at a position (0 for a [Switch]). *)

val guard_fn : t -> int -> bool array -> bool
(** The guard of the decision at a position as a function of its atom
    vector (atoms in {!Ir.atoms_of_condition} order), the masking
    function of MC/DC; built once per handle.  Constantly false for a
    [Switch]. *)

val n_atoms : t -> int

val mcdc_id : t -> int -> int -> int
(** [mcdc_id t decision atom]; raises [Not_found] for an unknown
    decision and [Invalid_argument] for an atom out of range. *)

val condition_id : t -> int -> int -> bool -> int
(** [condition_id t decision atom value], with {!mcdc_id}'s errors. *)

(** {1 State and input construction} *)

val initial_state : t -> state
val default_inputs : t -> inputs

val random_inputs : Random.State.t -> t -> inputs
(** Draws per-variable random values in declaration order (stable RNG
    consumption). *)

val inputs_of_list : t -> (string * Value.t) list -> inputs
(** Defaults plus the given bindings; unknown names are ignored, matching
    the reference interpreter's treatment of extraneous map entries. *)

val state_of_list : t -> (string * Value.t) list -> state
(** Initial state plus the given bindings; unknown names are ignored. *)

(** {1 Name-keyed map bridge} *)

val state_of_smap : t -> Value.t Smap.t -> state
val smap_of_state : t -> state -> Value.t Smap.t
val smap_of_inputs : t -> inputs -> Value.t Smap.t
val smap_of_outputs : t -> outputs -> Value.t Smap.t

(** {1 Equality and hashing for state dedup} *)

val values_equal : Value.t array -> Value.t array -> bool
val values_hash : Value.t array -> int
(** Structural hash consistent with [values_equal] (which lifts
    {!Value.equal}, so [Int n] and [Real (float n)] hash alike, as do
    [0.] and [-0.]). *)

val state_equal : state -> state -> bool
val state_hash : state -> int

(** {1 Execution} *)

val run_step : ?on_event:(event -> unit) -> t -> state -> inputs -> outputs * state
(** Execute one iteration.

    - The state is copied in (vectors deeply); the copy is the step's
      register file and becomes the returned state.
    - The inputs are read in place when every input is a scalar, since
      nothing can write to a scalar; if some input is a vector they are
      copied in too.  Neither argument is ever mutated.
    - Stores have value semantics: assigning a vector to a variable, or
      into a vector element, stores a copy.  So no two variables share a
      vector, a write through [x[i]] changes [x] alone, and program
      constants are never written.
    - The returned arrays are the step's own, not copied out again: they
      share no vector with the caller's arrays, with program constants,
      or with each other.

    Apart from the values its expressions compute, a step allocates its
    state, output and local arrays, the frame that holds them and the
    result pair; guard events are shared (see {!event}).
    Event order and error messages are bit-identical to the reference
    interpreter ({!Interp.run_step_reference}). *)

val run_sequence :
  ?on_event:(event -> unit) -> t -> state -> inputs list -> outputs list * state

(** {1 Printing} *)

val pp_state : t -> state Fmt.t
val pp_inputs : t -> inputs Fmt.t
val pp_outputs : t -> outputs Fmt.t
