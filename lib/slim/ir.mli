(** The SLIM step-program intermediate representation.

    Every model — whether authored as a block diagram, a Stateflow-like
    chart, or directly — compiles to one {!program}: a guarded imperative
    step function executed once per simulation step.  The interpreter,
    the coverage trackers and the symbolic executor all consume this IR.

    Each [If] and [Switch] statement carries a unique decision id used by
    coverage tracking and by the branch structure of {!Branch}. *)

type scope =
  | Input  (** model input port, free each step *)
  | Output  (** model output port, written each step *)
  | State  (** persistent across steps: delays, data stores, chart state *)
  | Local  (** scratch within one step *)

type var = { name : string; scope : scope; ty : Value.ty }

type unop = Neg | Not | Abs_op | To_real | To_int | Floor | Ceil

type binop = Add | Sub | Mul | Div | Mod | Min | Max

type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Const of Value.t
  | Var of scope * string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Cmp of cmpop * expr * expr
  | And of expr * expr  (** full (non-short-circuit) evaluation *)
  | Or of expr * expr
  | Ite of expr * expr * expr
  | Index of expr * expr  (** [Index (vec, idx)], 0-based *)

type lvalue =
  | Lvar of scope * string
  | Lindex of lvalue * expr

type stmt =
  | Assign of lvalue * expr
  | If of { id : int; cond : expr; then_ : stmt list; else_ : stmt list }
  | Switch of {
      id : int;
      scrut : expr;  (** integer scrutinee *)
      cases : (int * stmt list) list;  (** distinct integer labels *)
      default : stmt list;
    }

type program = {
  name : string;
  inputs : var list;
  outputs : var list;
  states : (var * Value.t) list;  (** with initial values *)
  locals : var list;
  body : stmt list;
}

exception Ill_typed of string

val scope_name : scope -> string

(** {1 Construction helpers} *)

val var : scope -> string -> Value.ty -> var
val input : string -> Value.ty -> var
val output : string -> Value.ty -> var
val local : string -> Value.ty -> var
val state : string -> Value.ty -> Value.t -> var * Value.t

val ci : int -> expr
(** Integer constant. *)

val cr : float -> expr
val cb : bool -> expr
val iv : string -> expr  (** input variable reference *)

val sv : string -> expr  (** state variable reference *)

val lv : string -> expr  (** local variable reference *)

val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( /: ) : expr -> expr -> expr
val ( =: ) : expr -> expr -> expr
val ( <>: ) : expr -> expr -> expr
val ( <: ) : expr -> expr -> expr
val ( <=: ) : expr -> expr -> expr
val ( >: ) : expr -> expr -> expr
val ( >=: ) : expr -> expr -> expr
val ( &&: ) : expr -> expr -> expr
val ( ||: ) : expr -> expr -> expr
val not_ : expr -> expr
val ite : expr -> expr -> expr -> expr
val index : expr -> expr -> expr
val conj : expr list -> expr
(** Conjunction of a list; [Const true] when empty. *)

val disj : expr list -> expr

val assign : string -> expr -> stmt
(** Assign to a local variable. *)

val assign_state : string -> expr -> stmt
val assign_out : string -> expr -> stmt
val assign_state_idx : string -> expr -> expr -> stmt
(** [assign_state_idx name idx e] writes one cell of a vector state. *)

val if_ : expr -> stmt list -> stmt list -> stmt
(** Fresh decision id drawn from an internal counter; call
    {!renumber_decisions} on the finished program for dense stable ids. *)

val switch : expr -> (int * stmt list) list -> stmt list -> stmt

(** {1 Analyses} *)

val atoms_of_condition : expr -> expr list
(** The atomic conditions of a decision guard: maximal subterms that are
    not built with [And]/[Or]/[Not].  Order is left-to-right and stable. *)

val renumber_decisions : program -> program
(** Re-assign decision ids densely (0, 1, 2, …) in syntactic order. *)

val type_check : program -> unit
(** Full static check: every variable reference resolves with the right
    scope, operand types agree, guards are boolean, scrutinees are
    integers, assignment targets match.  Raises {!Ill_typed}. *)

val expr_ty : (scope -> string -> Value.ty) -> expr -> Value.ty
(** Type of an expression given a variable typing environment.
    Raises {!Ill_typed}. *)

val ty_of_value : Value.t -> Value.ty
(** The natural type of a value (scalar bounds default to the generous
    {!Value.tint} / {!Value.treal} domains). *)

val stmt_count : program -> int

(** {1 Fragments}

    A fragment is a reusable piece of step program with its own private
    state and locals — the compiled form of a Stateflow chart or library
    subsystem.  [instantiate] renames its internals with a prefix so that
    several instances can coexist in one program. *)

type fragment = {
  f_name : string;
  f_inputs : var list;  (** formal inputs, bound by the instantiator *)
  f_outputs : var list;  (** formal outputs, read by the instantiator *)
  f_states : (var * Value.t) list;
  f_locals : var list;
  f_body : stmt list;
}

val instantiate :
  prefix:string ->
  bind_input:(string -> expr) ->
  out_local:(string -> string) ->
  fragment ->
  (var * Value.t) list * var list * stmt list
(** [instantiate ~prefix ~bind_input ~out_local frag] returns
    [(states, locals, body)] where every state/local/output of the
    fragment is renamed with [prefix], every formal input reference is
    replaced by [bind_input name], and each formal output [o] is a local
    named [out_local o]. *)

(** {1 Printing} *)

val pp_expr : expr Fmt.t
val pp_stmt : stmt Fmt.t
val pp_program : program Fmt.t
val pp_unop : unop Fmt.t
val pp_binop : binop Fmt.t
val pp_cmpop : cmpop Fmt.t
