(** The slot-resolved lowered form of an {!Ir.program}, built once per
    program by {!Exec.handle}.  {!Exec} compiles its closures from it,
    the symbolic executor walks it with terms and the static analyzer
    with abstract values, so these rules are written in one place:

    - every variable reference is a slot of one register file: inputs,
      states, locals, outputs, each scope in declaration order; a name
      declared twice in one scope resolves to its last declaration;
    - a name no declaration binds lowers to [Unbound] / [Lunbound]; a
      read or write of it raises when reached ([Ir.type_check] rejects
      such programs, so only hand-built ones get there);
    - constants are numbered into {!t.consts} (an integer once per
      distinct value, any other constant once per occurrence), so each
      interpreter converts a constant to its own value domain once;
    - each decision carries its position in syntactic pre-order, its
      first atom id, its atoms ({!Ir.atoms_of_condition} order), whether
      its guard reads only inputs and state no earlier statement may
      write, and, for a [Switch], its outcomes;
    - the branch table of Definition 1 ({!t.branches}) comes from the
      same walk, so it is the only code that reads a program's
      structure. *)

type expr =
  | Const of int  (** index into {!t.consts} *)
  | Slot of int
  | Unbound of Ir.scope * string
  | Unop of Ir.unop * expr
  | Binop of Ir.binop * expr * expr
  | Cmp of Ir.cmpop * expr * expr
  | And of expr * expr  (** full (non-short-circuit) evaluation *)
  | Or of expr * expr
  | Ite of expr * expr * expr
  | Index of expr * expr

type lvalue =
  | Lslot of int  (** writing an input slot raises "assignment to input" *)
  | Lunbound of Ir.scope * string
  | Lindex of lvalue * expr

type stmt =
  | Assign of lvalue * expr
  | If of {
      id : int;
      pos : int;  (** position in {!t.decisions} *)
      atom_base : int;  (** first atom id; the atoms follow consecutively *)
      cond : expr;
      atoms : expr list;
      input_state_only : bool;
          (** the guard reads no local, no output and no state slot that
              a statement on some path from the start of the step to it
              writes, so it has the value it has at the start of the
              step on every path through the step *)
      then_ : stmt list;
      else_ : stmt list;
    }
  | Switch of {
      id : int;
      pos : int;
      scrut : expr;
      labels : int list;
      input_state_only : bool;
      cases : (int * stmt list) list;
      default : stmt list;
      outcomes : Branch.outcome list;
          (** one [Case] per label in order, then [Default] *)
    }

type names  (** the index behind {!slot} *)

type t = private {
  vars : Ir.var array;  (** declaration of each slot *)
  n_inputs : int;
  n_states : int;
  local_base : int;  (** [n_inputs + n_states] *)
  output_base : int;
  n_slots : int;
  consts : Value.t array;
  body : stmt list;
  decisions : stmt array;  (** the [If]s and [Switch]es by position *)
  branches : Branch.t list;
      (** every branch in syntactic order: an [If]'s [Then] and the
          branches of its then-arm, then its [Else] and those of its
          else-arm; a [Switch]'s cases in order, then its [Default] *)
  names : names;
}

val of_program : Ir.program -> t

val slot : t -> Ir.scope -> string -> int option
(** The slot a name resolves to. *)

val scope_of : t -> int -> Ir.scope

val fold : ('a -> stmt -> 'a) -> 'a -> stmt list -> 'a
(** Every statement, nested ones included, in syntactic pre-order. *)

val lvalue_root : lvalue -> int option
(** The slot an lvalue writes into; [None] for an unbound root. *)
