(** Symbolic values and slot-compiled programs for one-step symbolic
    execution.

    A symbolic value is a scalar constant, a scalar solver term or a
    (possibly nested) array of symbolic values.  Model state enters as
    constants — the essence of the paper's state-aware solving — while
    inputs enter as solver variables.  Constants ([Const]) are not
    interned: operators on two constants fold with the term layer's own
    evaluators, case for case as the term constructors fold, so
    {!scalar} interns the very node a term-only evaluation would have
    built.  Array reads at symbolic indices expand to [Tite] chains over
    the (statically known) element count; array writes at symbolic
    indices blend every element with a guarded [Tite].  Because state
    arrays are constants, those chains fold to small terms.

    The walk reads the {!Slim.Lower} form that {!Slim.Exec.handle}
    builds.  Kept per domain, because hash-consed terms are per domain,
    is one register file per program, with its undo trail, its
    template, its input variables and the input and state shapes. *)

type sval =
  | Const of Slim.Value.t  (** a scalar: [Bool], [Int] or [Real] *)
  | Scalar of Solver.Term.t  (** never a constant term *)
  | Arr of sval array

exception Sym_error of string

val scalar : sval -> Solver.Term.t
(** The value as a term, interning a constant.  Raises {!Sym_error} on
    arrays. *)

(** {1 Environments} *)

type env
(** A mutable register file over one lowered program, with an undo
    trail: {!assign} records the slot's old value, and {!undo} rolls
    back to a {!mark}.  Symbolic values themselves are immutable (array
    writes copy), so restoring a slot restores the whole variable.
    Each program has one on each domain, so an environment is valid
    until the next {!env_of_program} of its program on its domain. *)

val env_of_program :
  ?prefix:string ->
  ?symbolic_state:bool ->
  Slim.Ir.program ->
  state:Slim.Exec.state ->
  input_var:(string -> Slim.Value.ty -> Solver.Term.t) ->
  env * (string * Slim.Value.ty) list
(** The starting environment for one step: the program's register
    file on the calling domain, reset.  It is built on the program's
    first use in the domain (memoized, newest first, keyed on physical
    equality; each build counts [symexec.compiles]); the input variables
    are made again only for another [input_var] (physically) or [prefix].
    State slots hold snapshot constants (slot [i] of [state] is the
    [i]-th declared state variable, the {!Slim.Exec} positional
    contract; a short snapshot falls back to declared initial values),
    locals and outputs type defaults, and each (flattened, scalar)
    input a variable made by [input_var].  Returns the environment and
    the solver variables created for the inputs, in declaration order
    (vector inports flatten to [name.k] scalars; [prefix] distinguishes
    unrolled steps in multi-step solving).  With [symbolic_state] the
    state slots hold variables [st$name] instead, appended to the
    list. *)

val lowered : env -> Slim.Lower.t
(** The program the environment runs: walk its [body]; its [decisions]
    are indexed by {!Slim.Exec.decision_pos}. *)

val eval : env -> Slim.Lower.expr -> sval
(** Symbolic evaluation; array reads expand as described above.
    Raises {!Sym_error} on a name no declaration binds and on a
    constant out-of-bounds index, and {!Slim.Value.Type_error} on type
    confusion. *)

val eval_scalar : env -> Slim.Lower.expr -> sval
(** {!eval}, raising {!Sym_error} when the value is an array. *)

val assign : env -> Slim.Lower.lvalue -> sval -> unit
(** Assignment through the trail, copy-on-write through arrays.  A
    write at a symbolic index turns every element [e_k] into
    [ite (idx = k) v e_k].  Raises {!Sym_error} on an input and on a
    name no declaration binds. *)

type mark

val mark : env -> mark
val undo : env -> mark -> unit
(** Restore every slot assigned since the mark. *)

val step_inputs :
  env ->
  prefix:string ->
  input_var:(string -> Slim.Value.ty -> Solver.Term.t) ->
  sval array * (string * Slim.Value.ty) list
(** Fresh input values for one unrolled step (one per declared input)
    and their solver variables, each distinct variable once. *)

val start_step : env -> sval array -> unit
(** Begin the next unrolled step: write the inputs and reset locals and
    outputs to their defaults, through the trail.  State carries over. *)

val inputs_of_assignment :
  ?prefix:string -> Slim.Ir.program -> Slim.Value.t Solver.Csp.Smap.t ->
  Slim.Exec.inputs
(** Reassemble slot-addressed inputs from a solver assignment over
    flattened input variables; unassigned inputs take type defaults. *)
