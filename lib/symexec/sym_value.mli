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

    The walk runs on a mirror of the {!Slim.Lower} form that
    {!Slim.Exec.handle} builds, whose program points remember what they
    last derived.  Kept per domain, because hash-consed terms are per
    domain, are one register file per program, with its undo trail, its
    template, its input variables, the input and state shapes, and the
    mirror with its memos. *)

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

(** {1 The walkable mirror}

    The first {!env_of_program} of a program on a domain compiles its
    lowered body into a mirror that the walk runs on.  Each arm of a
    decision ends in the node after the decision, so a walk keeps no
    stack of pending statement lists.  A guard, atom or assignment that
    is a constant or a slot read is evaluated as it is, which allocates
    nothing.  Any other has a one-entry memo keyed on the values of the
    slots it reads: a [Scalar] by physical term, a [Const] by its bits
    ([0.0] and [-0.0] differ, and so do NaN payloads), an [Arr]
    physically.  A hit returns the stored value without calling
    {!Solver.Term}; an evaluation that raises stores nothing, so the
    next one raises again.  Terms are hash-consed and a memo keeps its
    value alive, so a hit is the very value, down to the term node, an
    evaluation would have built.  A state snapshot with the same bits as
    the environment's last one gets the same values, so memos keyed on
    a state array hit across solves. *)

type point
(** A guard or an atom: a constant or a slot read, or an expression
    with its memo. *)

(** What taking one arm of a decision adds to the path condition. *)
type arm =
  | Taken
  | Not_taken
  | Constraint of Solver.Term.t  (** never a constant *)

(** A node of the mirror.  [root] is the slot [lhs] writes ([-1] when
    its name is unbound).  A [Copy] writes a constant or a slot read
    into a slot, which allocates nothing; an [Assign] memoizes, as a
    point does, the value [root] holds after the write: [keys.(i)] is
    what slot [reads.(i)] held, the last key the value. *)
type node = private
  | End_of_step
  | Copy of {
      lhs : Slim.Lower.lvalue;
      root : int;
      src : Slim.Lower.expr;
      next : node;
    }
  | Assign of {
      lhs : Slim.Lower.lvalue;
      root : int;
      expr : Slim.Lower.expr;
      reads : int array;
      keys : sval array;
      next : node;
    }
  | Decide of decision

(** A decision.  [arms_of] and [arm_cache] hold the arms {!arm} built
    for the last guard term; [atoms] and [atom_terms] are filled by
    {!atom_terms}. *)
and decision = private {
  stmt : Slim.Lower.stmt;  (** the lowered [If] or [Switch] *)
  id : int;
  guard : point;
  mutable atoms : point array;
      (** an [If]'s atoms, built by the first {!atom_terms}; none for a
          [Switch] *)
  mutable atom_terms : Solver.Term.t array;  (** {!atom_terms}' result *)
  outcomes : Slim.Branch.outcome array;
      (** [Then; Else], or a [Switch]'s outcomes *)
  labels : int list;  (** a [Switch]'s case labels *)
  arms : node array;  (** the arm each outcome selects *)
  mutable arms_of : Solver.Term.t option;
  arm_cache : arm option array;  (** by outcome, for [arms_of] *)
}

val entry : env -> node
(** The mirror of the program's body. *)

val decision : env -> int -> decision
(** The mirror of the decision at a position ({!Slim.Exec.decision_pos}). *)

val guard : env -> decision -> sval
(** The decision's guard or scrutinee, through its memo.  Raises as
    {!eval} does, and {!Sym_error} when the value is an array. *)

val atom_terms : env -> decision -> Solver.Term.t array
(** The atoms of an [If]'s guard as terms, evaluated left to right
    through their memos into the decision's scratch array, which is
    returned (valid until the next call on the decision); empty for a
    [Switch]. *)

val assign : env -> node -> unit
(** A [Copy] or an [Assign] through the trail, copy-on-write through
    arrays, an [Assign]'s new root value through its memo; any other
    node does nothing.  A write at a symbolic index turns every
    element [e_k] into [ite (idx = k) v e_k].  Raises {!Sym_error} on an
    input and on a name no declaration binds. *)

val outcome_arm :
  Slim.Branch.outcome -> Solver.Term.t -> case_labels:int list -> arm
(** The arm constraint of an outcome for a guard term, built afresh. *)

val arm : decision -> sval -> int -> arm
(** The arm of outcome [k] for guard value [g]: a constant guard answers
    without building a term; any other goes through [arm_cache]. *)

val eval : env -> Slim.Lower.expr -> sval
(** Symbolic evaluation; array reads expand as described above.
    Raises {!Sym_error} on a name no declaration binds and on a
    constant out-of-bounds index, and {!Slim.Value.Type_error} on type
    confusion. *)

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
