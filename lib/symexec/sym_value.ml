module Value = Slim.Value
module Ir = Slim.Ir
module L = Slim.Lower
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

(* --- lowered programs, with this domain's constants ------------------- *)

(* A (possibly vector) input or symbolic state, flattened: each leaf is
   one scalar solver variable named [name.k…]. *)
type shape =
  | Leaf of string * Value.ty
  | Node of shape array

type program = {
  lowered : L.t;
  consts : sval array;  (** [lowered.consts] as terms of this domain *)
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
  }

(* Per-domain memo, newest first, keyed on physical equality of the
   program like [Exec.handle].  Per domain because the constants and the
   template are hash-consed terms, which are per domain.  A solve runs one program at
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
    let c = build prog in
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

let lowered env = env.code.lowered

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

let unbound scope name =
  sym_error "unbound %s variable %s" (Ir.scope_name scope) name

let rec eval env (e : L.expr) : sval =
  match e with
  | L.Const c -> env.code.consts.(c)
  | L.Slot i -> env.regs.(i)
  | L.Unbound (scope, name) -> unbound scope name
  | L.Unop (op, e) -> Scalar (Term.unop op (scalar (eval env e)))
  | L.Binop (op, a, b) ->
    Scalar (Term.binop op (scalar (eval env a)) (scalar (eval env b)))
  | L.Cmp (op, a, b) ->
    Scalar (Term.cmp op (scalar (eval env a)) (scalar (eval env b)))
  | L.And (a, b) ->
    Scalar (Term.and_ (scalar (eval env a)) (scalar (eval env b)))
  | L.Or (a, b) ->
    Scalar (Term.or_ (scalar (eval env a)) (scalar (eval env b)))
  | L.Ite (c, t, f) ->
    let sc = scalar (eval env c) in
    (match Term.is_const sc with
     | Some v -> if Value.to_bool v then eval env t else eval env f
     | None -> Scalar (Term.ite sc (scalar (eval env t)) (scalar (eval env f))))
  | L.Index (v, i) -> read_index (eval env v) (scalar (eval env i))

let rec assign env (lhs : L.lvalue) v =
  match lhs with
  | L.Lslot slot ->
    let lp = env.code.lowered in
    if slot < lp.n_inputs then sym_error "assignment to input %s" lp.vars.(slot).name
    else write env slot v
  | L.Lunbound (Ir.Input, name) -> sym_error "assignment to input %s" name
  | L.Lunbound (scope, name) -> unbound scope name
  | L.Lindex (inner, idx_expr) ->
    let container =
      let rec resolve = function
        | L.Lslot slot -> env.regs.(slot)
        | L.Lunbound (scope, name) -> unbound scope name
        | L.Lindex (l, i) -> read_index (resolve l) (scalar (eval env i))
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
  let n_in = code.lowered.n_inputs in
  (* a copy, then the inputs: cheaper per solve than building the
     register file element by element *)
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
          regs.(n_in + k) <- build_input ~prefix:"" ~input_var shape)
        code.states;
      if prefix = "" then code.all_leaves
      else prefixed prefix code.input_leaves @ code.state_leaves
    end
    else begin
      (* positional slot contract with Slim.Exec: state slot [k] is the
         [k]-th declared state variable; a short snapshot keeps the
         declared initial values of the template *)
      for k = 0 to min code.lowered.n_states (Array.length state) - 1 do
        regs.(n_in + k) <- sval_of_value state.(k)
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
  let lp = env.code.lowered in
  for slot = lp.local_base to lp.n_slots - 1 do
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
