module Value = Slim.Value
module Ir = Slim.Ir
module L = Slim.Lower
module Term = Solver.Term

type sval =
  | Const of Value.t
  | Scalar of Term.t
  | Arr of sval array

exception Sym_error of string

let sym_error fmt = Format.kasprintf (fun s -> raise (Sym_error s)) fmt

let c_true = Const (Value.Bool true)
let c_false = Const (Value.Bool false)
let const_bool b = if b then c_true else c_false

let rec sval_of_value = function
  | (Value.Bool _ | Value.Int _ | Value.Real _) as v -> Const v
  | Value.Vec a -> Arr (Array.map sval_of_value a)

(* A term as a symbolic value: a folded constant stays uninterned, so no
   [Scalar] ever holds a [Cst]. *)
let of_term t =
  match Term.view t with
  | Term.Cst v -> Const v
  | _ -> Scalar t

let scalar = function
  | Scalar t -> t
  | Const v -> Term.cst v
  | Arr _ -> sym_error "expected scalar symbolic value, got array"

let check_scalar = function
  | Arr _ -> sym_error "expected scalar symbolic value, got array"
  | (Const _ | Scalar _) as v -> v

(* --- lowered programs, with this domain's register file --------------- *)

(* A (possibly vector) input or symbolic state, flattened: each leaf is
   one scalar solver variable named [name.k…]. *)
type shape =
  | Leaf of string * Value.ty
  | Node of shape array

(* A program's one register file on a domain, with its undo trail and
   what the walk reads of the program.  [input_regs] are the input slots
   as [input_var] with [input_prefix] made them, kept for the next
   environment that asks for the same. *)
type env = {
  lowered : L.t;
  consts : sval array;  (** [lowered.consts] as symbolic values *)
  template : sval array;
      (** the register file before a step: declared state inits, type
          defaults for locals and outputs; the input slots hold a
          placeholder that every environment overwrites *)
  inputs : shape array;
  states : shape array;  (** named [st$name…], for symbolic state *)
  input_leaves : (string * Value.ty) list;
  state_leaves : (string * Value.ty) list;
  all_leaves : (string * Value.ty) list;
      (** [input_leaves @ state_leaves], built once: with symbolic
          state, every solve gets this very list *)
  step_leaves : (string * Value.ty) list;
      (** [input_leaves] without repeats (first occurrence kept) *)
  regs : sval array;
  mutable trail_slots : int array;
  mutable trail_old : sval array;
  mutable trail_len : int;
  mutable input_var : string -> Value.ty -> Term.t;
  mutable input_prefix : string;
  mutable input_regs : sval array;
}

let rec shape_of name (ty : Value.ty) =
  match ty with
  | Value.Tbool | Value.Tint _ | Value.Treal _ -> Leaf (name, ty)
  | Value.Tvec (ety, n) ->
    Node (Array.init n (fun k -> shape_of (Fmt.str "%s.%d" name k) ety))

let rec leaves acc = function
  | Leaf (name, ty) -> (name, ty) :: acc
  | Node a -> Array.fold_left leaves acc a

let leaves_of shapes =
  List.rev (Array.fold_left leaves [] shapes)

let tel_compiles = Telemetry.Counter.make ~nondet:true "symexec.compiles"
let tel_compile_span = Telemetry.Span.make "symexec.compile"

let no_input_var _ _ = invalid_arg "Sym_value: no input variables made yet"

let build (prog : Ir.program) =
  Telemetry.Counter.incr tel_compiles;
  Telemetry.Span.with_ tel_compile_span @@ fun () ->
  let lowered = Slim.Exec.lowered (Slim.Exec.handle prog) in
  let consts = Array.map sval_of_value lowered.consts in
  let inits = Array.of_list (List.map snd prog.states) in
  let template =
    Array.init lowered.n_slots (fun s ->
        if s < lowered.n_inputs then Arr [||]
        else if s < lowered.local_base then sval_of_value inits.(s - lowered.n_inputs)
        else sval_of_value (Value.default_of_ty lowered.vars.(s).ty))
  in
  let inputs =
    Array.of_list (List.map (fun (v : Ir.var) -> shape_of v.name v.ty) prog.inputs)
  in
  let states =
    Array.of_list
      (List.map (fun ((v : Ir.var), _) -> shape_of ("st$" ^ v.name) v.ty) prog.states)
  in
  let input_leaves = leaves_of inputs in
  let state_leaves = leaves_of states in
  {
    lowered;
    consts;
    template;
    inputs;
    states;
    input_leaves;
    state_leaves;
    all_leaves = input_leaves @ state_leaves;
    step_leaves =
      List.rev
        (List.fold_left
           (fun acc leaf -> if List.mem leaf acc then acc else leaf :: acc)
           [] input_leaves);
    regs = Array.copy template;
    trail_slots = [||];
    trail_old = [||];
    trail_len = 0;
    input_var = no_input_var;
    input_prefix = "";
    input_regs = [||];
  }

(* Per-domain memo, newest first, keyed on physical equality of the
   program like [Exec.handle].  Per domain because the register file
   holds hash-consed terms, which are per domain.  A solve runs one
   program at a time, so a few entries suffice; an eviction shows up as
   an extra [symexec.compiles]. *)
let memo_capacity = 4

let memo_key : (Ir.program * env) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let compile (prog : Ir.program) =
  let memo = Domain.DLS.get memo_key in
  match List.assq_opt prog !memo with
  | Some c -> c
  | None ->
    let c = build prog in
    memo := (prog, c) :: List.filteri (fun i _ -> i < memo_capacity - 1) !memo;
    c

(* --- environments ----------------------------------------------------- *)

let lowered env = env.lowered

type mark = int

let mark env = env.trail_len

let undo env m =
  for i = env.trail_len - 1 downto m do
    env.regs.(env.trail_slots.(i)) <- env.trail_old.(i)
  done;
  env.trail_len <- m

let write env slot v =
  let n = env.trail_len in
  if n = Array.length env.trail_slots then begin
    let cap = max 16 (2 * n) in
    let slots = Array.make cap 0 in
    let old = Array.make cap v in
    Array.blit env.trail_slots 0 slots 0 n;
    Array.blit env.trail_old 0 old 0 n;
    env.trail_slots <- slots;
    env.trail_old <- old
  end;
  env.trail_slots.(n) <- slot;
  env.trail_old.(n) <- env.regs.(slot);
  env.trail_len <- n + 1;
  env.regs.(slot) <- v

(* --- evaluation --------------------------------------------------------- *)

(* Two constants fold with the term layer's own evaluators, so a folded
   [Const] is the value the term constructor would have interned; where
   those raise, the constructor builds the same unfolded node it always
   did.  [And]/[Or] follow [Term.and_]/[Term.or_] case for case. *)

let unop op = function
  | Const v -> (
    try Const (Term.eval_unop op v)
    with Value.Type_error _ -> Scalar (Term.unop op (Term.cst v)))
  | a -> Scalar (Term.unop op (scalar a))

let binop op a b =
  match a, b with
  | Const x, Const y -> (
    try Const (Term.eval_binop op x y)
    with Value.Type_error _ -> Scalar (Term.binop op (Term.cst x) (Term.cst y)))
  | _ -> Scalar (Term.binop op (scalar a) (scalar b))

let cmp op a b =
  match a, b with
  | Const x, Const y -> (
    try const_bool (Term.eval_cmp op x y)
    with Value.Type_error _ -> Scalar (Term.cmp op (Term.cst x) (Term.cst y)))
  | _ -> Scalar (Term.cmp op (scalar a) (scalar b))

let and_ a b =
  match a, b with
  | Const (Value.Bool true), _ -> b
  | _, Const (Value.Bool true) -> a
  | Const (Value.Bool false), _ | _, Const (Value.Bool false) -> c_false
  | _ -> Scalar (Term.and_ (scalar a) (scalar b))

let or_ a b =
  match a, b with
  | Const (Value.Bool false), _ -> b
  | _, Const (Value.Bool false) -> a
  | Const (Value.Bool true), _ | _, Const (Value.Bool true) -> c_true
  | _ -> Scalar (Term.or_ (scalar a) (scalar b))

(* A constant index into [a]: out of range raises, matching the
   interpreter. *)
let const_index a v =
  let n = Array.length a and k = Value.to_int v in
  if k < 0 || k >= n then sym_error "index %d out of bounds [0,%d)" k n else k

(* Read [arr] at a possibly-symbolic index: Ite chain over element
   positions. *)
let read_index arr idx =
  match arr, idx with
  | (Const _ | Scalar _), _ -> sym_error "indexing a scalar"
  | Arr a, Const v -> a.(const_index a v)
  | Arr a, _ ->
    let idx = scalar idx in
    let n = Array.length a in
    if n = 0 then sym_error "indexing an empty array"
    else begin
      (* all elements must be scalars for the Ite chain *)
      let elems = Array.map scalar a in
      let rec chain k =
        if k = n - 1 then elems.(k)
        else
          Term.ite (Term.cmp Ir.Eq idx (Term.cint k)) elems.(k) (chain (k + 1))
      in
      of_term (chain 0)
    end

let write_index arr idx v =
  match arr, idx with
  | (Const _ | Scalar _), _ -> sym_error "indexing a scalar"
  | Arr a, Const c ->
    let k = const_index a c in
    let a' = Array.copy a in
    a'.(k) <- v;
    Arr a'
  | Arr a, _ ->
    let idx = scalar idx in
    let sv = scalar v in
    Arr
      (Array.mapi
         (fun k e ->
           of_term (Term.ite (Term.cmp Ir.Eq idx (Term.cint k)) sv (scalar e)))
         a)

let unbound scope name =
  sym_error "unbound %s variable %s" (Ir.scope_name scope) name

(* Operands are evaluated right to left, the order in which the walk
   has always met their errors. *)
let rec eval env (e : L.expr) : sval =
  match e with
  | L.Const c -> env.consts.(c)
  | L.Slot i -> env.regs.(i)
  | L.Unbound (scope, name) -> unbound scope name
  | L.Unop (op, a) -> unop op (eval_scalar env a)
  | L.Binop (op, a, b) ->
    let b = eval_scalar env b in
    binop op (eval_scalar env a) b
  | L.Cmp (op, a, b) ->
    let b = eval_scalar env b in
    cmp op (eval_scalar env a) b
  | L.And (a, b) ->
    let b = eval_scalar env b in
    and_ (eval_scalar env a) b
  | L.Or (a, b) ->
    let b = eval_scalar env b in
    or_ (eval_scalar env a) b
  | L.Ite (c, t, f) -> (
    match eval_scalar env c with
    | Const v -> if Value.to_bool v then eval env t else eval env f
    | c ->
      let f = scalar (eval env f) in
      of_term (Term.ite (scalar c) (scalar (eval env t)) f))
  | L.Index (v, i) ->
    let i = eval_scalar env i in
    read_index (eval env v) i

and eval_scalar env e = check_scalar (eval env e)

let rec assign env (lhs : L.lvalue) v =
  match lhs with
  | L.Lslot slot ->
    let lp = env.lowered in
    if slot < lp.n_inputs then sym_error "assignment to input %s" lp.vars.(slot).name
    else write env slot v
  | L.Lunbound (Ir.Input, name) -> sym_error "assignment to input %s" name
  | L.Lunbound (scope, name) -> unbound scope name
  | L.Lindex (inner, idx_expr) ->
    let rec resolve = function
      | L.Lslot slot -> env.regs.(slot)
      | L.Lunbound (scope, name) -> unbound scope name
      | L.Lindex (l, i) ->
        let i = eval_scalar env i in
        read_index (resolve l) i
    in
    let container = resolve inner in
    let idx = eval_scalar env idx_expr in
    assign env inner (write_index container idx v)

let leaf_name prefix name = if prefix = "" then name else prefix ^ name

let rec build_input ~prefix ~input_var = function
  | Leaf (name, ty) -> of_term (input_var (leaf_name prefix name) ty)
  | Node a -> Arr (Array.map (build_input ~prefix ~input_var) a)

let prefixed prefix leaves =
  if prefix = "" then leaves
  else List.map (fun (name, ty) -> (prefix ^ name, ty)) leaves

let env_of_program ?(prefix = "") ?(symbolic_state = false)
    (prog : Ir.program) ~state ~input_var =
  let env = compile prog in
  let regs = env.regs and n_in = env.lowered.n_inputs in
  if env.input_var != input_var || not (String.equal env.input_prefix prefix)
  then begin
    env.input_regs <- Array.map (build_input ~prefix ~input_var) env.inputs;
    env.input_var <- input_var;
    env.input_prefix <- prefix
  end;
  (* reset from the template in one block, then the inputs *)
  Array.blit env.template n_in regs n_in (env.lowered.n_slots - n_in);
  Array.blit env.input_regs 0 regs 0 n_in;
  env.trail_len <- 0;
  let vars =
    if symbolic_state then begin
      (* ablation mode: the state is a solver unknown, as a whole-trace
         solver without dynamic state feedback would treat it *)
      Array.iteri
        (fun k shape ->
          regs.(n_in + k) <- build_input ~prefix:"" ~input_var shape)
        env.states;
      if prefix = "" then env.all_leaves
      else prefixed prefix env.input_leaves @ env.state_leaves
    end
    else begin
      (* positional slot contract with Slim.Exec: state slot [k] is the
         [k]-th declared state variable; a short snapshot keeps the
         declared initial values of the template *)
      for k = 0 to min env.lowered.n_states (Array.length state) - 1 do
        regs.(n_in + k) <- sval_of_value state.(k)
      done;
      prefixed prefix env.input_leaves
    end
  in
  (env, vars)

let step_inputs env ~prefix ~input_var =
  ( Array.map (build_input ~prefix ~input_var) env.inputs,
    prefixed prefix env.step_leaves )

let start_step env inputs =
  Array.iteri (fun i v -> write env i v) inputs;
  let lp = env.lowered in
  for slot = lp.local_base to lp.n_slots - 1 do
    write env slot env.template.(slot)
  done

(* Rebuild slot-addressed interpreter inputs from flattened assignments. *)
let inputs_of_assignment ?(prefix = "") (prog : Ir.program) assignment =
  let rec rebuild = function
    | Leaf (name, ty) -> (
      match Solver.Csp.Smap.find_opt (leaf_name prefix name) assignment with
      | Some v -> v
      | None -> Value.default_of_ty ty)
    | Node a -> Value.Vec (Array.map rebuild a)
  in
  Array.map rebuild (compile prog).inputs
