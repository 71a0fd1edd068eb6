(* Slot-compiled execution core.

   [compile] runs once per program.  It builds the program's [Lower.t],
   which Symexec.Sym_value and Analysis.Analyzer walk as well, and
   compiles it to closures over four flat [Value.t array]s (register
   slot [s] is entry [s - base] of its scope's array, the positional
   contract Stcg.Testcase shares).  Switch dispatch becomes a table,
   and the requirement chains, objective index and guards' atom
   functions are computed up front from the lowering's branch and
   decision tables, so [run_step] does no string hashing and builds no
   per-step environment. *)

module Smap = Map.Make (String)

type state = Value.t array
type inputs = Value.t array
type outputs = Value.t array

type event =
  | Branch_hit of Branch.key
  | Cond_vector of { id : int; vector : bool array; outcome : bool }

exception Eval_error of string

let eval_error fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

(* Telemetry (no-ops unless enabled at program start).  [exec.compiles]
   is nondeterministic: the handle memo is shared across domains, so
   eviction order — and with it the recompile count — can depend on
   scheduling. *)
let tel_steps = Telemetry.Counter.make "exec.steps"
let tel_compiles = Telemetry.Counter.make ~nondet:true "exec.compiles"
let tel_compile_span = Telemetry.Span.make "exec.compile"

(* Mutable per-step register file.  A fresh frame is built for every step, so
   a handle is freely shareable across engines and (later) worker domains. *)
type frame = {
  f_inp : Value.t array;
  f_out : Value.t array;
  f_st : Value.t array;
  f_loc : Value.t array;
  f_emit : event -> unit;
}

module Key_tbl = Hashtbl.Make (struct
  type t = Branch.key

  let equal = Branch.equal_key

  let hash ((d, o) : t) =
    let code =
      match o with
      | Branch.Then -> 0
      | Branch.Else -> 1
      | Branch.Default -> 2
      | Branch.Case k -> 3 + (4 * k)
    in
    Hashtbl.hash ((d lsl 20) lxor code)
end)

module Int_tbl = Hashtbl.Make (Int)

type t = {
  lowered : Lower.t;
  input_vars : Ir.var array;
  output_vars : Ir.var array;
  state_vars : Ir.var array;
  state_init : Value.t array;
  input_defaults : Value.t array;
  output_defaults : Value.t array;
  local_defaults : Value.t array;
  vector_inputs : bool;
      (** some input is a vector, so a step copies the inputs in: an
          [Lindex] write could otherwise reach the caller's array *)
  body : frame -> unit;
  branches : Branch.t list;
  branch_arr : Branch.t array;  (** by branch id *)
  req_chains : (int * Branch.outcome) list array;  (** by branch id *)
  (* objective index *)
  branch_ids : int Key_tbl.t;  (** key -> position in [branches] *)
  decision_pos : int Int_tbl.t;  (** decision id -> position *)
  atom_bases : int array;
      (** per decision position, its first atom id; one extra final
          entry holds the atom total *)
  guard_fns : (bool array -> bool) array;  (** by decision position *)
}

(* --- compilation ------------------------------------------------------- *)

(* A slot of the lowered register file lives in the frame array of its
   scope, at its offset within that scope. *)
let offset (lp : Lower.t) s =
  match Lower.scope_of lp s with
  | Ir.Input -> s
  | Ir.State -> s - lp.n_inputs
  | Ir.Local -> s - lp.local_base
  | Ir.Output -> s - lp.output_base

let reader (lp : Lower.t) s : frame -> Value.t =
  let i = offset lp s in
  match Lower.scope_of lp s with
  | Ir.Input -> fun fr -> fr.f_inp.(i)
  | Ir.State -> fun fr -> fr.f_st.(i)
  | Ir.Local -> fun fr -> fr.f_loc.(i)
  | Ir.Output -> fun fr -> fr.f_out.(i)

(* One closure per slot and per constant, shared by every reference. *)
type cctx = {
  lp : Lower.t;
  readers : (frame -> Value.t) array;
  consts : (frame -> Value.t) array;
}

(* The error is raised at execution time, like the reference path. *)
let unbound scope name =
  eval_error "unbound %s variable %s" (Ir.scope_name scope) name

(* Boolean results are one of two shared values: values are immutable
   and [Value.copy] returns scalars as they are, so a guard or
   comparison allocates nothing. *)
let v_true = Value.Bool true
let v_false = Value.Bool false
let of_bool b = if b then v_true else v_false

let rec compile_expr ctx (e : Lower.expr) : frame -> Value.t =
  match e with
  | Const k -> ctx.consts.(k)
  | Slot s -> ctx.readers.(s)
  | Unbound (scope, name) -> fun _ -> unbound scope name
  | Unop (op, e) ->
    let f = compile_expr ctx e in
    (match op with
     | Neg -> fun fr -> Value.neg (f fr)
     | Not -> fun fr -> of_bool (not (Value.to_bool (f fr)))
     | Abs_op -> fun fr -> Value.abs_v (f fr)
     | To_real -> fun fr -> Value.Real (Value.to_real (f fr))
     | To_int -> fun fr -> Value.int (Value.to_int (f fr))
     | Floor -> fun fr -> Value.floor_v (f fr)
     | Ceil -> fun fr -> Value.ceil_v (f fr))
  | Binop (op, a, b) ->
    let fa = compile_expr ctx a in
    let fb = compile_expr ctx b in
    let g =
      match op with
      | Ir.Add -> Value.add
      | Ir.Sub -> Value.sub
      | Ir.Mul -> Value.mul
      | Ir.Div -> Value.div
      | Ir.Mod -> Value.modulo
      | Ir.Min -> Value.min_v
      | Ir.Max -> Value.max_v
    in
    fun fr ->
      let va = fa fr in
      let vb = fb fr in
      g va vb
  | Cmp (op, a, b) ->
    let fa = compile_expr ctx a in
    let fb = compile_expr ctx b in
    (match op with
     | Ir.Eq ->
       fun fr ->
         let va = fa fr in
         let vb = fb fr in
         of_bool (Value.equal va vb)
     | Ir.Ne ->
       fun fr ->
         let va = fa fr in
         let vb = fb fr in
         of_bool (not (Value.equal va vb))
     | Ir.Lt ->
       fun fr ->
         let va = fa fr in
         let vb = fb fr in
         of_bool (Value.compare_num va vb < 0)
     | Ir.Le ->
       fun fr ->
         let va = fa fr in
         let vb = fb fr in
         of_bool (Value.compare_num va vb <= 0)
     | Ir.Gt ->
       fun fr ->
         let va = fa fr in
         let vb = fb fr in
         of_bool (Value.compare_num va vb > 0)
     | Ir.Ge ->
       fun fr ->
         let va = fa fr in
         let vb = fb fr in
         of_bool (Value.compare_num va vb >= 0))
  | And (a, b) ->
    (* Full (non-short-circuit) evaluation, like Simulink logic blocks. *)
    let fa = compile_expr ctx a in
    let fb = compile_expr ctx b in
    fun fr ->
      let va = Value.to_bool (fa fr) in
      let vb = Value.to_bool (fb fr) in
      of_bool (va && vb)
  | Or (a, b) ->
    let fa = compile_expr ctx a in
    let fb = compile_expr ctx b in
    fun fr ->
      let va = Value.to_bool (fa fr) in
      let vb = Value.to_bool (fb fr) in
      of_bool (va || vb)
  | Ite (c, t, e) ->
    let fc = compile_expr ctx c in
    let ft = compile_expr ctx t in
    let fe = compile_expr ctx e in
    fun fr -> if Value.to_bool (fc fr) then ft fr else fe fr
  | Index (v, i) ->
    let fv = compile_expr ctx v in
    let fi = compile_expr ctx i in
    fun fr ->
      let a = Value.to_vec (fv fr) in
      let k = Value.to_int (fi fr) in
      if k < 0 || k >= Array.length a then
        eval_error "index %d out of bounds [0,%d)" k (Array.length a)
      else a.(k)

let rec compile_lvalue_resolve ctx (l : Lower.lvalue) : frame -> Value.t =
  match l with
  | Lslot s -> ctx.readers.(s)
  | Lunbound (scope, name) -> fun _ -> unbound scope name
  | Lindex (inner, idx) ->
    let fl = compile_lvalue_resolve ctx inner in
    let fi = compile_expr ctx idx in
    fun fr ->
      let a = Value.to_vec (fl fr) in
      let k = Value.to_int (fi fr) in
      if k < 0 || k >= Array.length a then
        eval_error "lvalue index %d out of bounds" k
      else a.(k)

(* Stores have value semantics: a slot or element receives its own copy
   of a vector (a scalar is stored as it is), so no two slots, and no slot
   and a program constant, ever share a mutable payload.  A later
   [Lindex] write then changes exactly the one variable it names. *)
let compile_write ctx (lhs : Lower.lvalue) : frame -> Value.t -> unit =
  match lhs with
  | Lslot s -> (
    let i = offset ctx.lp s in
    match Lower.scope_of ctx.lp s with
    | Ir.Input ->
      let name = ctx.lp.vars.(s).name in
      fun _ _ -> eval_error "assignment to input %s" name
    | Ir.State -> fun fr v -> fr.f_st.(i) <- Value.copy v
    | Ir.Local -> fun fr v -> fr.f_loc.(i) <- Value.copy v
    | Ir.Output -> fun fr v -> fr.f_out.(i) <- Value.copy v)
  | Lunbound (Ir.Input, name) ->
    fun _ _ -> eval_error "assignment to input %s" name
  | Lunbound (scope, name) -> fun _ _ -> unbound scope name
  | Lindex (inner, idx) ->
    let fl = compile_lvalue_resolve ctx inner in
    let fi = compile_expr ctx idx in
    fun fr v ->
      let a = Value.to_vec (fl fr) in
      let k = Value.to_int (fi fr) in
      if k < 0 || k >= Array.length a then
        eval_error "lvalue index %d out of bounds [0,%d)" k (Array.length a)
      else a.(k) <- Value.copy v

(* Guard of an [If]: atoms are evaluated left to right (every atom value
   is observable for condition/MCDC coverage), then the whole condition,
   then one Cond_vector event is emitted.

   A guard of at most [max_shared_atoms] atoms packs its atom values into
   an int mask and emits a shared event: slot [mask * 2 + outcome] of a
   per-guard table, filled the first time that combination is seen.
   Events are immutable in fact (no consumer writes to one), so a shared
   one is as good as a fresh one and the guard allocates nothing once
   warm.  The table lives in the handle, which worker domains share; two
   domains racing on an empty slot each store a structurally equal event
   and either may win, so the unsynchronised fill is idempotent.  Wider
   guards build a fresh vector and event on every evaluation. *)
let max_shared_atoms = 6

let no_event = Branch_hit (-1, Branch.Then)

let vector_of_mask n mask = Array.init n (fun i -> mask land (1 lsl i) <> 0)

let fill_event table slot id n mask outcome =
  let ev = Cond_vector { id; vector = vector_of_mask n mask; outcome } in
  table.(slot) <- ev;
  ev

let compile_guard ctx id cond atoms : frame -> bool =
  let atom_fns = Array.of_list (List.map (compile_expr ctx) atoms) in
  let n = Array.length atom_fns in
  let cond_fn = compile_expr ctx cond in
  if n <= max_shared_atoms then begin
    let table = Array.make (1 lsl (n + 1)) no_event in
    fun fr ->
      let mask = ref 0 in
      for i = 0 to n - 1 do
        if Value.to_bool (atom_fns.(i) fr) then mask := !mask lor (1 lsl i)
      done;
      let outcome = Value.to_bool (cond_fn fr) in
      let slot = (!mask lsl 1) lor Bool.to_int outcome in
      let ev = Array.unsafe_get table slot in
      fr.f_emit
        (if ev != no_event then ev else fill_event table slot id n !mask outcome);
      outcome
  end
  else
    fun fr ->
      let vector = Array.make n false in
      for i = 0 to n - 1 do
        vector.(i) <- Value.to_bool (atom_fns.(i) fr)
      done;
      let outcome = Value.to_bool (cond_fn fr) in
      fr.f_emit (Cond_vector { id; vector; outcome });
      outcome

(* A guard as a function of its atom vector, for the MC/DC masking
   test: atoms are numbered left to right as [Lower.atoms_of] lists
   them, and [Not]/[And]/[Or] above them are applied to the vector. *)
let atom_fn (cond : Lower.expr) : bool array -> bool =
  let next = ref 0 in
  let rec build : Lower.expr -> bool array -> bool = function
    | Lower.And (a, b) ->
      let fa = build a in
      let fb = build b in
      fun v -> fa v && fb v
    | Lower.Or (a, b) ->
      let fa = build a in
      let fb = build b in
      fun v -> fa v || fb v
    | Lower.Unop (Ir.Not, a) ->
      let f = build a in
      fun v -> not (f v)
    | Lower.Const _ | Lower.Slot _ | Lower.Unbound _ | Lower.Unop _
    | Lower.Binop _ | Lower.Cmp _ | Lower.Ite _ | Lower.Index _ ->
      let i = !next in
      incr next;
      fun v -> v.(i)
  in
  build cond

let no_atoms (_ : bool array) = false

(* Switch label -> arm index.  Dense labels get a direct table; sparse ones
   fall back to a Hashtbl.  Either way dispatch is O(1), replacing the
   reference interpreter's List.assoc_opt scan. *)
let compile_dispatch (labels : int list) : int -> int =
  match labels with
  | [] -> fun _ -> -1
  | l0 :: rest ->
    let lo = List.fold_left min l0 rest in
    let hi = List.fold_left max l0 rest in
    let span = hi - lo + 1 in
    if span <= (4 * (List.length labels + 4)) then begin
      let table = Array.make span (-1) in
      List.iteri (fun i k -> table.(k - lo) <- i) labels;
      fun k -> if k < lo || k > hi then -1 else table.(k - lo)
    end
    else begin
      let tbl = Hashtbl.create (2 * List.length labels) in
      List.iteri (fun i k -> Hashtbl.replace tbl k i) labels;
      fun k -> (match Hashtbl.find_opt tbl k with Some i -> i | None -> -1)
    end

let rec compile_stmts ctx (ss : Lower.stmt list) : frame -> unit =
  match List.map (compile_stmt ctx) ss with
  | [] -> fun _ -> ()
  | [ f ] -> f
  | fs ->
    let arr = Array.of_list fs in
    fun fr ->
      for i = 0 to Array.length arr - 1 do
        (Array.unsafe_get arr i) fr
      done

and compile_stmt ctx : Lower.stmt -> frame -> unit = function
  | Lower.Assign (lhs, e) ->
    let fe = compile_expr ctx e in
    let fw = compile_write ctx lhs in
    fun fr ->
      let v = fe fr in
      fw fr v
  | Lower.If { id; cond; atoms; then_; else_; _ } ->
    let guard = compile_guard ctx id cond atoms in
    let ft = compile_stmts ctx then_ in
    let fe = compile_stmts ctx else_ in
    let hit_then = Branch_hit (id, Branch.Then) in
    let hit_else = Branch_hit (id, Branch.Else) in
    fun fr ->
      if guard fr then begin
        fr.f_emit hit_then;
        ft fr
      end
      else begin
        fr.f_emit hit_else;
        fe fr
      end
  | Lower.Switch { id; scrut; labels; cases; default; _ } ->
    let fs = compile_expr ctx scrut in
    let arms =
      Array.of_list
        (List.map
           (fun (k, ss) -> (Branch_hit (id, Branch.Case k), compile_stmts ctx ss))
           cases)
    in
    let fdef = compile_stmts ctx default in
    let hit_default = Branch_hit (id, Branch.Default) in
    let dispatch = compile_dispatch labels in
    fun fr ->
      let k = Value.to_int (fs fr) in
      (match dispatch k with
       | -1 ->
         fr.f_emit hit_default;
         fdef fr
       | i ->
         let hit, body = arms.(i) in
         fr.f_emit hit;
         body fr)

let compile (prog : Ir.program) : t =
  Telemetry.Counter.incr tel_compiles;
  Telemetry.Span.with_ tel_compile_span @@ fun () ->
  let lp = Lower.of_program prog in
  let input_vars = Array.of_list prog.inputs in
  let output_vars = Array.of_list prog.outputs in
  let state_vars = Array.of_list (List.map fst prog.states) in
  let state_init = Array.of_list (List.map snd prog.states) in
  let defaults vars =
    Array.map (fun (v : Ir.var) -> Value.default_of_ty v.ty) vars
  in
  let body =
    compile_stmts
      {
        lp;
        readers = Array.init lp.n_slots (reader lp);
        consts = Array.map (fun v -> let read _ = v in read) lp.consts;
      }
      lp.body
  in
  let branches = lp.branches in
  let branch_arr = Array.of_list branches in
  (* On a repeated key or decision id (which [Ir.type_check] rejects)
     the last occurrence wins. *)
  let branch_ids = Key_tbl.create (Array.length branch_arr) in
  Array.iteri (fun i (b : Branch.t) -> Key_tbl.replace branch_ids b.key i) branch_arr;
  let req_chains =
    (* Requirement chain of a branch: decisions that must take a specific
       outcome for control to reach it, root-first, including itself.
       Each parent is looked up once, not once per descendant. *)
    let parent =
      Array.map
        (fun (b : Branch.t) ->
          match b.parent with Some p -> Key_tbl.find branch_ids p | None -> -1)
        branch_arr
    in
    let rec chain acc i =
      let acc = branch_arr.(i).key :: acc in
      if parent.(i) < 0 then acc else chain acc parent.(i)
    in
    Array.init (Array.length branch_arr) (chain [])
  in
  let n_decisions = Array.length lp.decisions in
  let decision_pos = Int_tbl.create n_decisions in
  let atom_bases = Array.make (n_decisions + 1) 0 in
  let guard_fns = Array.make n_decisions no_atoms in
  Array.iteri
    (fun p (d : Lower.stmt) ->
      let atoms =
        match d with
        | Lower.If { id; cond; atoms; _ } ->
          Int_tbl.replace decision_pos id p;
          guard_fns.(p) <- atom_fn cond;
          List.length atoms
        | Lower.Switch { id; _ } ->
          Int_tbl.replace decision_pos id p;
          0
        | Lower.Assign _ -> 0
      in
      atom_bases.(p + 1) <- atom_bases.(p) + atoms)
    lp.decisions;
  {
    lowered = lp;
    input_vars;
    output_vars;
    state_vars;
    state_init;
    input_defaults = defaults input_vars;
    output_defaults = defaults output_vars;
    local_defaults = defaults (Array.of_list prog.locals);
    vector_inputs =
      Array.exists
        (fun (v : Ir.var) -> match v.ty with Value.Tvec _ -> true | _ -> false)
        input_vars;
    body;
    branches;
    branch_arr;
    req_chains;
    branch_ids;
    decision_pos;
    atom_bases;
    guard_fns;
  }

(* --- per-program handle memo ------------------------------------------- *)

(* Keyed by physical equality: programs are built once (model constructors,
   registry entries) and then reused, so [==] is both correct and free.

   The memo is an immutable snapshot array behind an [Atomic.t], so the
   hit path — taken on every compile-handle resolution, including from
   every worker domain of a parallel job matrix — is a lock-free bounded
   scan with no mutation at all: no move-to-front, no [List.length]
   walk, no critical section to contend on.  Misses take the lock,
   re-check the latest snapshot (two domains racing on the same program
   compile it once), compile, and publish a new snapshot with the fresh
   entry in front, evicting the oldest entry beyond [memo_capacity]
   (O(capacity) copy on the cold path only).  The returned handle itself
   is immutable after construction (its index Hashtbls are never written
   past [compile]) apart from the guards' event tables, whose racy fill
   is idempotent (see [compile_guard]), and freely shareable across
   domains. *)
let memo_capacity = 32
let memo : (Ir.program * t) array Atomic.t = Atomic.make [||]
let memo_lock = Mutex.create ()

let memo_find (snap : (Ir.program * t) array) (prog : Ir.program) =
  let n = Array.length snap in
  let rec go i =
    if i >= n then None
    else begin
      let p, h = Array.unsafe_get snap i in
      if p == prog then Some h else go (i + 1)
    end
  in
  go 0

let handle (prog : Ir.program) : t =
  match memo_find (Atomic.get memo) prog with
  | Some h -> h
  | None ->
    Mutex.lock memo_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock memo_lock)
      (fun () ->
        let snap = Atomic.get memo in
        match memo_find snap prog with
        | Some h -> h
        | None ->
          let h = compile prog in
          let keep = min (Array.length snap) (memo_capacity - 1) in
          let snap' = Array.make (keep + 1) (prog, h) in
          Array.blit snap 0 snap' 1 keep;
          Atomic.set memo snap';
          h)

(* --- accessors --------------------------------------------------------- *)

let lowered t = t.lowered
let input_vars t = t.input_vars
let output_vars t = t.output_vars
(* A name's position within its own scope's array. *)
let scope_slot scope t name =
  Option.map (offset t.lowered) (Lower.slot t.lowered scope name)

let input_slot = scope_slot Ir.Input
let state_slot = scope_slot Ir.State
let output_slot = scope_slot Ir.Output

let find_in slot arr kind name =
  match slot name with
  | Some i -> arr.(i)
  | None -> eval_error "unknown %s variable %s" kind name

let find_input t (a : inputs) name = find_in (input_slot t) a "input" name
let find_output t (a : outputs) name = find_in (output_slot t) a "output" name
let find_state t (a : state) name = find_in (state_slot t) a "state" name

(* --- branch / decision metadata ------------------------------------------ *)

let branches t = t.branches
let find_branch t key =
  Option.map (Array.get t.branch_arr) (Key_tbl.find_opt t.branch_ids key)

let branch_chain t key =
  match Key_tbl.find_opt t.branch_ids key with
  | Some i -> t.req_chains.(i)
  | None -> Value.type_error "solve_target: unknown branch %a" Branch.pp_key key

let decision_chain t decision =
  (* Ancestor requirements of the decision itself: the parent chain of its
     Then branch (both outcomes share the same enclosing context). *)
  match find_branch t (decision, Branch.Then) with
  | None ->
    Value.type_error "solve_target: unknown branch %a" Branch.pp_key
      (decision, Branch.Then)
  | Some b ->
    (match b.Branch.parent with
     | Some p -> branch_chain t p
     | None -> [])

(* --- objective index ---------------------------------------------------- *)

let n_branches t = Array.length t.branch_arr
let branch_id t key = Key_tbl.find t.branch_ids key
let n_decisions t = Array.length t.atom_bases - 1
let decision_pos t id = Int_tbl.find t.decision_pos id
let atom_base t pos = t.atom_bases.(pos)
let atom_count t pos = t.atom_bases.(pos + 1) - t.atom_bases.(pos)
let n_atoms t = t.atom_bases.(n_decisions t)

let decision_id t pos =
  match t.lowered.decisions.(pos) with
  | Lower.If { id; _ } | Lower.Switch { id; _ } -> id
  | Lower.Assign _ -> invalid_arg "Exec.decision_id"

let guard_fn t pos = t.guard_fns.(pos)

let mcdc_id t decision atom =
  let p = decision_pos t decision in
  if atom < 0 || atom >= atom_count t p then
    invalid_arg "Exec.mcdc_id: atom out of range";
  t.atom_bases.(p) + atom

let condition_id t decision atom value =
  (2 * mcdc_id t decision atom) + Bool.to_int value

(* --- state / input construction ---------------------------------------- *)

let initial_state t : state = Array.map Value.copy t.state_init
let default_inputs t : inputs = Array.map Value.copy t.input_defaults

let random_inputs rng t : inputs =
  let n = Array.length t.input_vars in
  let a = Array.make n (Value.Bool false) in
  (* Explicit ascending loop: RNG draws must follow declaration order so
     random sequences are reproducible against the reference path. *)
  for i = 0 to n - 1 do
    a.(i) <- Value.random rng t.input_vars.(i).Ir.ty
  done;
  a

let of_list slot defaults l =
  let a = Array.map Value.copy defaults in
  List.iter
    (fun (name, v) ->
      match slot name with
      | Some i -> a.(i) <- v
      | None -> ())
    l;
  a

let inputs_of_list t l : inputs = of_list (input_slot t) t.input_defaults l
let state_of_list t l : state = of_list (state_slot t) t.state_init l

(* --- Smap bridge (the reference interpreter's maps) ---------------------- *)

let state_of_smap t (m : Value.t Smap.t) : state =
  Array.mapi
    (fun i (v : Ir.var) ->
      match Smap.find_opt v.name m with
      | Some x -> x
      | None -> t.state_init.(i))
    t.state_vars

let smap_of_arr vars (a : Value.t array) =
  let m = ref Smap.empty in
  Array.iteri (fun i (v : Ir.var) -> m := Smap.add v.name a.(i) !m) vars;
  !m

let smap_of_state t a = smap_of_arr t.state_vars a
let smap_of_inputs t a = smap_of_arr t.input_vars a
let smap_of_outputs t a = smap_of_arr t.output_vars a

(* --- equality / hashing for state dedup -------------------------------- *)

let rec values_equal_from (a : Value.t array) (b : Value.t array) i =
  i < 0
  || (Value.equal (Array.unsafe_get a i) (Array.unsafe_get b i)
      && values_equal_from a b (i - 1))

let values_equal (a : Value.t array) (b : Value.t array) =
  a == b
  || (Array.length a = Array.length b
      && values_equal_from a b (Array.length a - 1))

(* Structural hash consistent with [Value.equal]: [equal] identifies
   [Int n] with [Real (float n)] (and [-0.] with [0.]), so both hash via
   the IEEE bits of the normalized float.  NaN payloads other than the
   canonical quiet NaN would collide-or-split, but no Value operation
   produces them.  [float_hash_bits] is inlined so its float argument and
   the intermediate [int64] stay unboxed: hashing allocates nothing. *)
let[@inline] float_hash_bits r =
  let b = Int64.bits_of_float (r +. 0.0) in
  Int64.to_int (Int64.logxor b (Int64.shift_right_logical b 32))

let mix h k = (((h lsl 5) + h) lxor k) land max_int

let rec hash_value h (v : Value.t) =
  match v with
  | Value.Bool false -> mix h 0x2e5b
  | Value.Bool true -> mix h 0x9d37
  | Value.Int n -> mix h (float_hash_bits (float_of_int n))
  | Value.Real r -> mix h (float_hash_bits r)
  | Value.Vec a ->
    Array.fold_left hash_value (mix h (0x56ec + Array.length a)) a

let values_hash (a : Value.t array) = Array.fold_left hash_value 0x811c9dc5 a
let state_equal = values_equal
let state_hash = values_hash

(* --- execution --------------------------------------------------------- *)

let run_step ?(on_event = fun (_ : event) -> ()) t (st : state) (inp : inputs)
    : outputs * state =
  if Array.length st <> Array.length t.state_init then
    invalid_arg "Exec.run_step: state array length mismatch";
  if Array.length inp <> Array.length t.input_defaults then
    invalid_arg "Exec.run_step: inputs array length mismatch";
  Telemetry.Counter.incr tel_steps;
  (* The state is copied in: the copy is the frame's register file and,
     after the body has run, the returned snapshot.  Scalar inputs are
     read in place, because nothing can write to an input scalar. *)
  let fr =
    {
      f_inp = (if t.vector_inputs then Array.map Value.copy inp else inp);
      f_out = Array.map Value.copy t.output_defaults;
      f_st = Array.map Value.copy st;
      f_loc = Array.map Value.copy t.local_defaults;
      f_emit = on_event;
    }
  in
  t.body fr;
  (* No copy-out: stores have value semantics, so the frame's output and
     state arrays share nothing with the caller's arrays or with program
     constants. *)
  (fr.f_out, fr.f_st)

let run_sequence ?on_event t st inputs_list =
  let outs, final =
    List.fold_left
      (fun (acc, st) inp ->
        let out, st' = run_step ?on_event t st inp in
        (out :: acc, st'))
      ([], st) inputs_list
  in
  (List.rev outs, final)

(* --- printing ----------------------------------------------------------- *)

let pp_binding ppf (name, v) = Fmt.pf ppf "%s=%a" name Value.pp v

let pp_with_vars (vars : Ir.var array) ppf (a : Value.t array) =
  let items =
    Array.to_list (Array.mapi (fun i (v : Ir.var) -> (v.Ir.name, a.(i))) vars)
  in
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") pp_binding) items

let pp_state t = pp_with_vars t.state_vars
let pp_inputs t = pp_with_vars t.input_vars
let pp_outputs t = pp_with_vars t.output_vars
