module Value = Slim.Value
module Ir = Slim.Ir
module Branch = Slim.Branch
module Term = Solver.Term

type sval =
  | Scalar of Term.t
  | Arr of sval array

exception Sym_error of string

let sym_error fmt = Format.kasprintf (fun s -> raise (Sym_error s)) fmt

let rec sval_of_value = function
  | (Value.Bool _ | Value.Int _ | Value.Real _) as v -> Scalar (Term.cst v)
  | Value.Vec a -> Arr (Array.map sval_of_value a)

let scalar = function
  | Scalar t -> t
  | Arr _ -> sym_error "expected scalar symbolic value, got array"

(* --- slot-compiled programs ------------------------------------------- *)

type expr =
  | Const of sval
  | Slot of int
  | Undeclared of int * Ir.scope * string
      (** a name no declaration binds: its slot holds [unset] until an
          assignment writes it, and reading [unset] is an error *)
  | Unop of Ir.unop * expr
  | Binop of Ir.binop * expr * expr
  | Cmp of Ir.cmpop * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Ite of expr * expr * expr
  | Index of expr * expr

type lvalue =
  | Lslot of expr * int  (** how the base reads, and the slot it writes *)
  | Linput of expr * string  (** inputs read like any slot; writing fails *)
  | Lindex of lvalue * expr

type stmt =
  | Assign of lvalue * expr
  | If of {
      id : int;
      cond : expr;
      atoms : expr list;
      input_state_only : bool;
      then_ : stmt list;
      else_ : stmt list;
    }
  | Switch of {
      id : int;
      scrut : expr;
      labels : int list;
      input_state_only : bool;
      cases : (int * stmt list) list;
      default : stmt list;
      outcomes : Branch.outcome list;
    }

(* A (possibly vector) input or symbolic state, flattened: each leaf is
   one scalar solver variable named [name.k…]. *)
type shape =
  | Leaf of string * Value.ty
  | Node of shape array

type program = {
  body : stmt list;
  template : sval array;
      (** the register file before a step: declared state inits, type
          defaults for locals and outputs, [unset] elsewhere *)
  n_inputs : int;
  n_states : int;
  n_declared : int;  (** locals and outputs end here: reset every step *)
  inputs : shape array;
  states : shape array;  (** named [st$name…], for symbolic state *)
  input_leaves : (string * Value.ty) list;
  state_leaves : (string * Value.ty) list;
  all_leaves : (string * Value.ty) list;
      (** [input_leaves @ state_leaves], built once: with symbolic
          state, every solve gets this very list *)
  step_leaves : (string * Value.ty) list;
      (** [input_leaves] without repeats (first occurrence kept) *)
  decisions : (int, stmt) Hashtbl.t;
}

(* Never a value of any expression: a fresh block compared with [==]. *)
let unset = Arr [||]

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

(* Does the expression read only inputs and state (no locals/outputs)?
   Such guards have the same value on every path. *)
let rec input_state_only (e : Ir.expr) =
  match e with
  | Ir.Const _ -> true
  | Ir.Var ((Ir.Input | Ir.State), _) -> true
  | Ir.Var ((Ir.Local | Ir.Output), _) -> false
  | Ir.Unop (_, a) -> input_state_only a
  | Ir.Binop (_, a, b) | Ir.Cmp (_, a, b) | Ir.And (a, b) | Ir.Or (a, b) ->
    input_state_only a && input_state_only b
  | Ir.Ite (c, a, b) ->
    input_state_only c && input_state_only a && input_state_only b
  | Ir.Index (a, i) -> input_state_only a && input_state_only i

(* Name resolution for lowering.  Slots are inputs, then states, then
   locals, then outputs: each declared name takes its scope's offset plus
   the position {!Slim.Exec} resolves it to, so the layout rule (a
   duplicated name resolves to its last declaration) lives in
   [Slim.Exec] only.  Names no declaration binds get slots from
   [n_declared] on. *)
type lowering = {
  exec : Slim.Exec.t;
  local_base : int;
  output_base : int;
  n_declared : int;
  undeclared : (Ir.scope * string, int) Hashtbl.t;
  mutable next_slot : int;
}

let declared_slot lx (scope : Ir.scope) name =
  let find, base =
    match scope with
    | Ir.Input -> (Slim.Exec.input_slot, 0)
    | Ir.State -> (Slim.Exec.state_slot, Slim.Exec.n_inputs lx.exec)
    | Ir.Local -> (Slim.Exec.local_slot, lx.local_base)
    | Ir.Output -> (Slim.Exec.output_slot, lx.output_base)
  in
  Option.map (fun i -> base + i) (find lx.exec name)

(* The slot a name reads and writes, and its read form. *)
let resolve lx scope name =
  match declared_slot lx scope name with
  | Some i -> (i, Slot i)
  | None ->
    let i =
      match Hashtbl.find_opt lx.undeclared (scope, name) with
      | Some i -> i
      | None ->
        let i = lx.next_slot in
        lx.next_slot <- i + 1;
        Hashtbl.replace lx.undeclared (scope, name) i;
        i
    in
    (i, Undeclared (i, scope, name))

let rec lower_expr lx (e : Ir.expr) =
  match e with
  | Ir.Const v -> Const (sval_of_value v)
  | Ir.Var (scope, name) -> snd (resolve lx scope name)
  | Ir.Unop (op, a) -> Unop (op, lower_expr lx a)
  | Ir.Binop (op, a, b) -> Binop (op, lower_expr lx a, lower_expr lx b)
  | Ir.Cmp (op, a, b) -> Cmp (op, lower_expr lx a, lower_expr lx b)
  | Ir.And (a, b) -> And (lower_expr lx a, lower_expr lx b)
  | Ir.Or (a, b) -> Or (lower_expr lx a, lower_expr lx b)
  | Ir.Ite (c, a, b) -> Ite (lower_expr lx c, lower_expr lx a, lower_expr lx b)
  | Ir.Index (a, i) -> Index (lower_expr lx a, lower_expr lx i)

let rec lower_lvalue lx (l : Ir.lvalue) =
  match l with
  | Ir.Lvar (Ir.Input, name) -> Linput (snd (resolve lx Ir.Input name), name)
  | Ir.Lvar (scope, name) ->
    let slot, base = resolve lx scope name in
    Lslot (base, slot)
  | Ir.Lindex (l, i) -> Lindex (lower_lvalue lx l, lower_expr lx i)

let rec lower_stmt lx (s : Ir.stmt) =
  match s with
  | Ir.Assign (l, e) -> Assign (lower_lvalue lx l, lower_expr lx e)
  | Ir.If { id; cond; then_; else_ } ->
    If
      {
        id;
        cond = lower_expr lx cond;
        atoms = List.map (lower_expr lx) (Ir.atoms_of_condition cond);
        input_state_only = input_state_only cond;
        then_ = List.map (lower_stmt lx) then_;
        else_ = List.map (lower_stmt lx) else_;
      }
  | Ir.Switch { id; scrut; cases; default } ->
    let labels = List.map fst cases in
    Switch
      {
        id;
        scrut = lower_expr lx scrut;
        labels;
        input_state_only = input_state_only scrut;
        cases = List.map (fun (k, b) -> (k, List.map (lower_stmt lx) b)) cases;
        default = List.map (lower_stmt lx) default;
        outcomes = List.map (fun l -> Branch.Case l) labels @ [ Branch.Default ];
      }

(* Decisions by id, in syntactic order: on a repeated id the last one
   wins, as in [Exec.find_decision]. *)
let rec index_decisions tbl stmts =
  List.iter
    (fun s ->
      match s with
      | Assign _ -> ()
      | If { id; then_; else_; _ } ->
        Hashtbl.replace tbl id s;
        index_decisions tbl then_;
        index_decisions tbl else_
      | Switch { id; cases; default; _ } ->
        Hashtbl.replace tbl id s;
        List.iter (fun (_, b) -> index_decisions tbl b) cases;
        index_decisions tbl default)
    stmts

let tel_compiles = Telemetry.Counter.make ~nondet:true "symexec.compiles"
let tel_compile_span = Telemetry.Span.make "symexec.compile"

let lower (prog : Ir.program) =
  Telemetry.Counter.incr tel_compiles;
  Telemetry.Span.with_ tel_compile_span @@ fun () ->
  let state_vars = List.map fst prog.states in
  let exec = Slim.Exec.handle prog in
  let n_inputs = Slim.Exec.n_inputs exec in
  let n_states = Slim.Exec.n_states exec in
  let local_base = n_inputs + n_states in
  let output_base = local_base + List.length prog.locals in
  let n_declared = output_base + List.length prog.outputs in
  let lx =
    { exec; local_base; output_base; n_declared; undeclared = Hashtbl.create 8;
      next_slot = n_declared }
  in
  let body = List.map (lower_stmt lx) prog.body in
  let decisions = Hashtbl.create 64 in
  index_decisions decisions body;
  let template = Array.make lx.next_slot unset in
  List.iteri (fun k (_, init) -> template.(n_inputs + k) <- sval_of_value init) prog.states;
  List.iteri
    (fun k (v : Ir.var) ->
      template.(local_base + k) <- sval_of_value (Value.default_of_ty v.ty))
    (prog.locals @ prog.outputs);
  let inputs =
    Array.of_list (List.map (fun (v : Ir.var) -> shape_of v.name v.ty) prog.inputs)
  in
  let states =
    Array.of_list
      (List.map (fun (v : Ir.var) -> shape_of ("st$" ^ v.name) v.ty) state_vars)
  in
  let input_leaves = leaves_of inputs in
  let state_leaves = leaves_of states in
  {
    body;
    template;
    n_inputs;
    n_states;
    n_declared;
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
    decisions;
  }

(* Per-domain memo, newest first, keyed on physical equality of the
   program like [Exec.handle].  Per domain because the lowered form holds
   hash-consed terms, which are per domain.  A solve runs one program at
   a time, so a few entries suffice; an eviction shows up as an extra
   [symexec.compiles]. *)
let memo_capacity = 4

let memo_key : (Ir.program * program) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let compile (prog : Ir.program) =
  let memo = Domain.DLS.get memo_key in
  match List.assq_opt prog !memo with
  | Some c -> c
  | None ->
    let c = lower prog in
    memo := (prog, c) :: List.filteri (fun i _ -> i < memo_capacity - 1) !memo;
    c

(* --- environments ----------------------------------------------------- *)

type env = {
  code : program;
  regs : sval array;
  mutable trail_slots : int array;
  mutable trail_old : sval array;
  mutable trail_len : int;
}

let body env = env.code.body
let decision env id = Hashtbl.find_opt env.code.decisions id

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
    let old = Array.make cap unset in
    Array.blit env.trail_slots 0 slots 0 n;
    Array.blit env.trail_old 0 old 0 n;
    env.trail_slots <- slots;
    env.trail_old <- old
  end;
  env.trail_slots.(n) <- slot;
  env.trail_old.(n) <- env.regs.(slot);
  env.trail_len <- n + 1;
  env.regs.(slot) <- v

(* Read [arr] at a possibly-symbolic index: Ite chain over element
   positions.  Out-of-range concrete indices raise, matching the
   interpreter. *)
let read_index arr idx =
  match arr with
  | Scalar _ -> sym_error "indexing a scalar"
  | Arr a ->
    let n = Array.length a in
    (match Term.is_const idx with
     | Some v ->
       let k = Value.to_int v in
       if k < 0 || k >= n then sym_error "index %d out of bounds [0,%d)" k n
       else a.(k)
     | None ->
       if n = 0 then sym_error "indexing an empty array"
       else begin
         (* all elements must be scalars for the Ite chain *)
         let elems = Array.map scalar a in
         let rec chain k =
           if k = n - 1 then elems.(k)
           else
             Term.ite
               (Term.cmp Ir.Eq idx (Term.cint k))
               elems.(k) (chain (k + 1))
         in
         Scalar (chain 0)
       end)

let write_index arr idx v =
  match arr with
  | Scalar _ -> sym_error "indexing a scalar"
  | Arr a ->
    let n = Array.length a in
    (match Term.is_const idx with
     | Some c ->
       let k = Value.to_int c in
       if k < 0 || k >= n then sym_error "index %d out of bounds [0,%d)" k n
       else begin
         let a' = Array.copy a in
         a'.(k) <- v;
         Arr a'
       end
     | None ->
       let sv = scalar v in
       let a' =
         Array.mapi
           (fun k e ->
             Scalar
               (Term.ite (Term.cmp Ir.Eq idx (Term.cint k)) sv (scalar e)))
           a
       in
       Arr a')

let rec eval env (e : expr) : sval =
  match e with
  | Const v -> v
  | Slot i -> env.regs.(i)
  | Undeclared (i, scope, name) ->
    let v = env.regs.(i) in
    if v == unset then sym_error "unbound %s variable %s" (Ir.scope_name scope) name
    else v
  | Unop (op, e) -> Scalar (Term.unop op (scalar (eval env e)))
  | Binop (op, a, b) ->
    Scalar (Term.binop op (scalar (eval env a)) (scalar (eval env b)))
  | Cmp (op, a, b) ->
    Scalar (Term.cmp op (scalar (eval env a)) (scalar (eval env b)))
  | And (a, b) ->
    Scalar (Term.and_ (scalar (eval env a)) (scalar (eval env b)))
  | Or (a, b) ->
    Scalar (Term.or_ (scalar (eval env a)) (scalar (eval env b)))
  | Ite (c, t, f) ->
    let sc = scalar (eval env c) in
    (match Term.is_const sc with
     | Some v -> if Value.to_bool v then eval env t else eval env f
     | None -> Scalar (Term.ite sc (scalar (eval env t)) (scalar (eval env f))))
  | Index (v, i) -> read_index (eval env v) (scalar (eval env i))

let rec assign env (lhs : lvalue) v =
  match lhs with
  | Lslot (_, slot) -> write env slot v
  | Linput (_, name) -> sym_error "assignment to input %s" name
  | Lindex (inner, idx_expr) ->
    let container =
      let rec resolve = function
        | Lslot (base, _) | Linput (base, _) -> eval env base
        | Lindex (l, i) -> read_index (resolve l) (scalar (eval env i))
      in
      resolve inner
    in
    let idx = scalar (eval env idx_expr) in
    let container' = write_index container idx v in
    assign env inner container'

let leaf_name prefix name = if prefix = "" then name else prefix ^ name

let rec build_input ~prefix ~input_var = function
  | Leaf (name, ty) -> Scalar (input_var (leaf_name prefix name) ty)
  | Node a -> Arr (Array.map (build_input ~prefix ~input_var) a)

let prefixed prefix leaves =
  if prefix = "" then leaves
  else List.map (fun (name, ty) -> (prefix ^ name, ty)) leaves

let env_of_program ?(prefix = "") ?(symbolic_state = false)
    (prog : Ir.program) ~state ~input_var =
  let code = compile prog in
  let regs = Array.copy code.template in
  Array.iteri
    (fun i shape -> regs.(i) <- build_input ~prefix ~input_var shape)
    code.inputs;
  let vars =
    if symbolic_state then begin
      (* ablation mode: the state is a solver unknown, as a whole-trace
         solver without dynamic state feedback would treat it *)
      Array.iteri
        (fun k shape ->
          regs.(code.n_inputs + k) <- build_input ~prefix:"" ~input_var shape)
        code.states;
      if prefix = "" then code.all_leaves
      else prefixed prefix code.input_leaves @ code.state_leaves
    end
    else begin
      (* positional slot contract with Slim.Exec: state slot [k] is the
         [k]-th declared state variable; a short snapshot keeps the
         declared initial values of the template *)
      for k = 0 to min code.n_states (Array.length state) - 1 do
        regs.(code.n_inputs + k) <- sval_of_value state.(k)
      done;
      prefixed prefix code.input_leaves
    end
  in
  ({ code; regs; trail_slots = [||]; trail_old = [||]; trail_len = 0 }, vars)

let step_inputs env ~prefix ~input_var =
  ( Array.map (build_input ~prefix ~input_var) env.code.inputs,
    prefixed prefix env.code.step_leaves )

let start_step env inputs =
  Array.iteri (fun i v -> write env i v) inputs;
  for slot = env.code.n_inputs + env.code.n_states to env.code.n_declared - 1 do
    write env slot env.code.template.(slot)
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
