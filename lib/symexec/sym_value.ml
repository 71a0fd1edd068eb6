module Value = Slim.Value
module Ir = Slim.Ir
module L = Slim.Lower
module Branch = Slim.Branch
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

(* Bit-exact equality of values: [0.0] and [-0.0] differ, and so do NaN
   payloads. *)
let rec same_value (a : Value.t) (b : Value.t) =
  a == b
  ||
  match a, b with
  | Value.Bool x, Value.Bool y -> (x : bool) = y
  | Value.Int x, Value.Int y -> (x : int) = y
  | Value.Real x, Value.Real y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Value.Vec x, Value.Vec y -> Array.length x = Array.length y && same_elements x y 0
  | _, _ -> false

and same_elements x y i =
  i = Array.length x || (same_value x.(i) y.(i) && same_elements x y (i + 1))

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

(* --- the walkable mirror ------------------------------------------------ *)

(* What taking one arm of a decision adds to the path condition. *)
type arm =
  | Taken
  | Not_taken
  | Constraint of Term.t

(* An expression at one program point.  A constant or a slot read is
   evaluated as it is: that allocates nothing.  Any other has a
   one-entry memo: [keys.(i)] is the value slot [reads.(i)] held when
   the value [keys.(n)] was computed ([unset] before), [n] the number of
   slots read.  Constants are fixed per register file, so the slots are
   the whole key. *)
type point =
  | Direct of L.expr
  | Memo of { expr : L.expr; reads : int array; keys : sval array }

(* [root] is the slot [lhs] writes ([-1] when unbound).  A [Copy]
   writes a constant or a slot read into a slot; an [Assign] memoizes,
   as a [Memo] point does, the value [root] holds after the write. *)
type node =
  | End_of_step
  | Copy of { lhs : L.lvalue; root : int; src : L.expr; next : node }
  | Assign of {
      lhs : L.lvalue;
      root : int;
      expr : L.expr;
      reads : int array;
      keys : sval array;
      next : node;
    }
  | Decide of decision

and decision = {
  stmt : L.stmt;
  id : int;
  guard : point;
  mutable atoms : point array;  (** built by the first [atom_terms] *)
  mutable atom_terms : Term.t array;
  outcomes : Branch.outcome array;
  labels : int list;
  arms : node array;
  mutable arms_of : Term.t option;
  arm_cache : arm option array;
}

(* A program's one register file on a domain, with its undo trail and
   what the walk reads of the program.  [input_regs] are the input slots
   as [input_var] with [input_prefix] made them, kept for the next
   environment that asks for the same. *)
type env = {
  lowered : L.t;
  entry : node;  (** the mirror of [lowered.body] *)
  decision_nodes : decision array;  (** by position, as [lowered.decisions] *)
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
  last_state : Value.t array;
  state_regs : sval array;
      (** the state slots as the last snapshot made them, from its
          values [last_state]: a snapshot with the same bits gets the
          very same svals, so the memos keyed on them hit *)
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

(* A fresh block: no evaluation returns it. *)
let unset = Arr (Array.make 0 c_false)

(* What building a mirror needs: the decisions by position, and a
   buffer collecting the distinct slots one point reads ([seen.(s)] is
   the stamp of the last point that read [s]). *)
type builder = {
  decisions : decision option array;
  seen : int array;
  reads : int array;
  mutable n_reads : int;
  mutable stamp : int;
}

let builder (lowered : L.t) =
  {
    decisions = Array.make (Array.length lowered.decisions) None;
    seen = Array.make lowered.n_slots 0;
    reads = Array.make lowered.n_slots 0;
    n_reads = 0;
    stamp = 0;
  }

let start b =
  b.stamp <- b.stamp + 1;
  b.n_reads <- 0

let add_slot b s =
  if b.seen.(s) <> b.stamp then begin
    b.seen.(s) <- b.stamp;
    b.reads.(b.n_reads) <- s;
    b.n_reads <- b.n_reads + 1
  end

let rec add_reads b (e : L.expr) =
  match e with
  | L.Const _ | L.Unbound _ -> ()
  | L.Slot s -> add_slot b s
  | L.Unop (_, x) -> add_reads b x
  | L.Binop (_, x, y) | L.Cmp (_, x, y) | L.And (x, y) | L.Or (x, y) | L.Index (x, y) ->
    add_reads b x;
    add_reads b y
  | L.Ite (c, x, y) ->
    add_reads b c;
    add_reads b x;
    add_reads b y

(* An indexed write reads its root and its indices too. *)
let rec add_lvalue_reads b = function
  | L.Lslot s -> add_slot b s
  | L.Lunbound _ -> ()
  | L.Lindex (l, i) ->
    add_reads b i;
    add_lvalue_reads b l

(* The slots read since [start], and the keys of a memo on them. *)
let collected b = Array.sub b.reads 0 b.n_reads
let fresh_keys b = Array.make (b.n_reads + 1) unset

let point b (e : L.expr) =
  match e with
  | L.Const _ | L.Slot _ | L.Unbound _ -> Direct e
  | _ ->
    start b;
    add_reads b e;
    Memo { expr = e; reads = collected b; keys = fresh_keys b }

(* The slot an lvalue writes into; [-1] for an unbound root. *)
let rec root_slot = function
  | L.Lslot s -> s
  | L.Lunbound _ -> -1
  | L.Lindex (l, _) -> root_slot l

let if_outcomes = [| Branch.Then; Branch.Else |]

(* The arm of decision [d] that [outcome] selects. *)
let body (d : L.stmt) (outcome : Branch.outcome) =
  match d, outcome with
  | L.If { then_; _ }, Branch.Then -> then_
  | L.If { else_; _ }, (Branch.Else | Branch.Case _ | Branch.Default) -> else_
  | L.Switch { cases; default; _ }, Branch.Case c ->
    Option.value ~default (List.assoc_opt c cases)
  | L.Switch { default; _ }, (Branch.Default | Branch.Then | Branch.Else) -> default
  | L.Assign _, _ -> []

(* The mirror of a statement list that continues with [next]: every
   arm of a decision ends in the node after the decision, so the walk
   needs no stack of pending lists. *)
let rec mirror b (stmts : L.stmt list) next =
  match stmts with
  | [] -> next
  | s :: rest -> mirror_stmt b s (mirror b rest next)

and mirror_stmt b (s : L.stmt) next =
  match s with
  | L.Assign (lhs, e) -> (
    let root = root_slot lhs in
    match lhs, e with
    | (L.Lslot _ | L.Lunbound _), (L.Const _ | L.Slot _ | L.Unbound _) ->
      Copy { lhs; root; src = e; next }
    | _ ->
      start b;
      add_reads b e;
      add_lvalue_reads b lhs;
      Assign { lhs; root; expr = e; reads = collected b; keys = fresh_keys b; next })
  | L.If { id; pos; cond; _ } ->
    decide b s ~id ~pos ~guard:cond ~labels:[] if_outcomes next
  | L.Switch { id; pos; scrut; labels; outcomes; _ } ->
    decide b s ~id ~pos ~guard:scrut ~labels (Array.of_list outcomes) next

and decide b s ~id ~pos ~guard ~labels outcomes next =
  let n = Array.length outcomes in
  let arms = Array.make n next in
  for k = 0 to n - 1 do
    arms.(k) <- mirror b (body s outcomes.(k)) next
  done;
  let d =
    {
      stmt = s;
      id;
      guard = point b guard;
      atoms = [||];
      atom_terms = [||];
      outcomes;
      labels;
      arms;
      arms_of = None;
      arm_cache = Array.make n None;
    }
  in
  b.decisions.(pos) <- Some d;
  Decide d

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
  let b = builder lowered in
  let entry = mirror b lowered.body End_of_step in
  (* a decision only a duplicate [Switch] label holds is never walked,
     but the target's guard may still seed a solve *)
  Array.iteri
    (fun pos d ->
      if Option.is_none b.decisions.(pos) then ignore (mirror_stmt b d End_of_step))
    lowered.decisions;
  {
    lowered;
    entry;
    decision_nodes = Array.map Option.get b.decisions;
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
    last_state = Array.map Value.copy inits;
    state_regs = Array.sub template lowered.n_inputs lowered.n_states;
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

let entry env = env.entry
let decision env pos = env.decision_nodes.(pos)

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
  | _ -> of_term (Term.cmp op (scalar a) (scalar b))

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

(* The value the root slot of [lhs] holds once [v] is written through
   it: a write's errors in a write's order, without the write. *)
let rec written env (lhs : L.lvalue) v =
  match lhs with
  | L.Lslot slot ->
    let lp = env.lowered in
    if slot < lp.n_inputs then sym_error "assignment to input %s" lp.vars.(slot).name
    else v
  | L.Lunbound (Ir.Input, name) -> sym_error "assignment to input %s" name
  | L.Lunbound (scope, name) -> unbound scope name
  | L.Lindex (inner, idx_expr) ->
    let container = resolve env inner in
    let idx = eval_scalar env idx_expr in
    written env inner (write_index container idx v)

and resolve env = function
  | L.Lslot slot -> env.regs.(slot)
  | L.Lunbound (scope, name) -> unbound scope name
  | L.Lindex (l, i) ->
    let i = eval_scalar env i in
    read_index (resolve env l) i

(* --- the per-point memos ------------------------------------------------ *)

(* A key matches when the slot holds the same term or array physically,
   or a constant with the same bits: [0.0] and [-0.0] fold differently,
   and so may two NaNs. *)
let same_key a b =
  a == b
  ||
  match a, b with
  | Scalar x, Scalar y -> x == y
  | Const x, Const y -> same_value x y
  | _, _ -> false

let rec keys_hold regs reads keys i =
  i < 0 || (same_key regs.(reads.(i)) keys.(i) && keys_hold regs reads keys (i - 1))

(* The memoized value when the slots still hold its keys, else [unset]. *)
let recall env reads keys =
  let n = Array.length reads in
  let v = keys.(n) in
  if v != unset && keys_hold env.regs reads keys (n - 1) then v else unset

(* Called before anything is written, so the keys are the slots the
   value was computed from.  An evaluation that raised never gets
   here: the memo keeps its last entry. *)
let remember env reads keys v =
  let n = Array.length reads in
  for i = 0 to n - 1 do
    keys.(i) <- env.regs.(reads.(i))
  done;
  keys.(n) <- v

let point_value env = function
  | Direct e -> eval env e
  | Memo { expr; reads; keys } ->
    let v = recall env reads keys in
    if v != unset then v
    else begin
      let v = eval env expr in
      remember env reads keys v;
      v
    end

let guard env d = check_scalar (point_value env d.guard)

let atom_terms env d =
  (match d.stmt with
   | L.If { cond; atoms; _ } when Array.length d.atoms = 0 ->
     (* a single atom is the guard itself *)
     let b = builder env.lowered in
     let atom a = if a == cond then d.guard else point b a in
     d.atoms <- Array.of_list (List.map atom atoms);
     d.atom_terms <- Array.make (Array.length d.atoms) (Term.cbool false)
   | L.If _ | L.Switch _ | L.Assign _ -> ());
  for k = 0 to Array.length d.atoms - 1 do
    d.atom_terms.(k) <- scalar (point_value env d.atoms.(k))
  done;
  d.atom_terms

let assign env = function
  | Copy { lhs; root; src; _ } -> write env root (written env lhs (eval env src))
  | Assign { lhs; root; expr; reads; keys; _ } ->
    let v = recall env reads keys in
    if v != unset then write env root v
    else begin
      let v = written env lhs (eval env expr) in
      remember env reads keys v;
      write env root v
    end
  | End_of_step | Decide _ -> ()

(* --- arms ----------------------------------------------------------------- *)

let outcome_arm (outcome : Branch.outcome) t ~case_labels =
  let term =
    match outcome with
    | Branch.Then -> t
    | Branch.Else -> Term.not_ t
    | Branch.Case k -> Term.cmp Ir.Eq (Term.unop Ir.To_int t) (Term.cint k)
    | Branch.Default ->
      Term.conj
        (List.map
           (fun k -> Term.not_ (Term.cmp Ir.Eq (Term.unop Ir.To_int t) (Term.cint k)))
           case_labels)
  in
  match Term.view term with
  | Term.Cst (Value.Bool true) -> Taken
  | Term.Cst _ -> Not_taken
  | _ -> Constraint term

(* A constant guard answers without building a term, exactly as
   [outcome_arm] folds the one it would build. *)
let arm d g k =
  let outcome = d.outcomes.(k) in
  match g, outcome with
  | Const (Value.Bool b), Branch.Then -> if b then Taken else Not_taken
  | Const (Value.Bool b), Branch.Else -> if b then Not_taken else Taken
  | Const v, Branch.Case c -> if Value.to_int v = c then Taken else Not_taken
  | Const v, Branch.Default ->
    if List.mem (Value.to_int v) d.labels then Not_taken else Taken
  | _ -> (
    let t = scalar g in
    (match d.arms_of with
     | Some t' when t' == t -> ()
     | Some _ | None ->
       d.arms_of <- Some t;
       Array.fill d.arm_cache 0 (Array.length d.arm_cache) None);
    match d.arm_cache.(k) with
    | Some a -> a
    | None ->
      let a = outcome_arm outcome t ~case_labels:d.labels in
      d.arm_cache.(k) <- Some a;
      a)

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
        let v = state.(k) in
        if not (same_value env.last_state.(k) v) then begin
          (* a vector is mutable in place: keep a copy to compare with *)
          env.last_state.(k) <- Value.copy v;
          env.state_regs.(k) <- sval_of_value v
        end;
        regs.(n_in + k) <- env.state_regs.(k)
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
