(* Slot-compiled execution core.

   [compile] runs once per program: every variable reference is resolved to
   an integer slot into one of four flat [Value.t array]s (inputs / outputs /
   states / locals), the statement body is lowered to closures over those
   slots, Switch dispatch becomes a precomputed table, and the branch table,
   requirement chains and per-decision condition metadata are all computed up
   front.  [run_step] then executes one model iteration with zero string
   hashing and zero per-step environment construction.

   Slot [i] of a state/input/output array always corresponds to the [i]-th
   entry of [prog.states] / [prog.inputs] / [prog.outputs], and a name
   declared twice resolves to its last declaration.  Stcg.Testcase shares
   that positional contract, and Symexec.Sym_value takes its symbolic
   slots from a handle's [*_slot] lookups (one register file: inputs,
   then states, then locals, then outputs), so this is the only place
   the resolution rule is written. *)

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
   a handle is freely shareable across engines and (later) worker shards. *)
type frame = {
  f_inp : Value.t array;
  f_out : Value.t array;
  f_st : Value.t array;
  f_loc : Value.t array;
  f_emit : event -> unit;
}

type decision_shape = [ `If of Ir.expr | `Switch of Ir.expr * int list ]

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
  prog : Ir.program;
  input_vars : Ir.var array;
  output_vars : Ir.var array;
  state_vars : Ir.var array;
  state_init : Value.t array;
  input_defaults : Value.t array;
  output_defaults : Value.t array;
  local_defaults : Value.t array;
  input_index : (string, int) Hashtbl.t;
  output_index : (string, int) Hashtbl.t;
  state_index : (string, int) Hashtbl.t;
  local_index : (string, int) Hashtbl.t;
  body : frame -> unit;
  branches : Branch.t list;
  branch_arr : Branch.t array;  (** by branch id *)
  req_chains : (int * Branch.outcome) list array;  (** by branch id *)
  decisions : (int * decision_shape) list;
  decision_shapes : decision_shape array;  (** by position in [decisions] *)
  (* objective index *)
  branch_ids : int Key_tbl.t;  (** key -> position in [branches] *)
  decision_pos : int Int_tbl.t;  (** decision id -> position in [decisions] *)
  atom_bases : int array;
      (** per decision position, its first atom id; one extra final
          entry holds the atom total *)
}

(* --- compilation ------------------------------------------------------- *)

type cctx = {
  c_inp : (string, int) Hashtbl.t;
  c_out : (string, int) Hashtbl.t;
  c_st : (string, int) Hashtbl.t;
  c_loc : (string, int) Hashtbl.t;
}

let index_of_vars (vars : Ir.var list) =
  let tbl = Hashtbl.create (List.length vars * 2) in
  (* [replace]: on duplicate names the last declaration wins, matching the
     reference interpreter's bind order. *)
  List.iteri (fun i (v : Ir.var) -> Hashtbl.replace tbl v.name i) vars;
  tbl

let compile_read ctx scope name : frame -> Value.t =
  let tbl =
    match (scope : Ir.scope) with
    | Ir.Input -> ctx.c_inp
    | Ir.Output -> ctx.c_out
    | Ir.State -> ctx.c_st
    | Ir.Local -> ctx.c_loc
  in
  match Hashtbl.find_opt tbl name with
  | Some i ->
    (match scope with
     | Ir.Input -> fun fr -> fr.f_inp.(i)
     | Ir.Output -> fun fr -> fr.f_out.(i)
     | Ir.State -> fun fr -> fr.f_st.(i)
     | Ir.Local -> fun fr -> fr.f_loc.(i))
  | None ->
    (* The error is raised at execution time, like the reference path. *)
    fun _ -> eval_error "unbound %s variable %s" (Ir.scope_name scope) name

(* Boolean results are one of two shared values: values are immutable
   and [Value.copy] returns scalars as they are, so a guard or
   comparison allocates nothing. *)
let v_true = Value.Bool true
let v_false = Value.Bool false
let of_bool b = if b then v_true else v_false

let rec compile_expr ctx (e : Ir.expr) : frame -> Value.t =
  match e with
  | Const v -> fun _ -> v
  | Var (scope, name) -> compile_read ctx scope name
  | Unop (op, e) ->
    let f = compile_expr ctx e in
    (match op with
     | Neg -> fun fr -> Value.neg (f fr)
     | Not -> fun fr -> of_bool (not (Value.to_bool (f fr)))
     | Abs_op -> fun fr -> Value.abs_v (f fr)
     | To_real -> fun fr -> Value.Real (Value.to_real (f fr))
     | To_int -> fun fr -> Value.Int (Value.to_int (f fr))
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

let rec compile_lvalue_resolve ctx (l : Ir.lvalue) : frame -> Value.t =
  match l with
  | Lvar (scope, name) -> compile_read ctx scope name
  | Lindex (inner, idx) ->
    let fl = compile_lvalue_resolve ctx inner in
    let fi = compile_expr ctx idx in
    fun fr ->
      let a = Value.to_vec (fl fr) in
      let k = Value.to_int (fi fr) in
      if k < 0 || k >= Array.length a then
        eval_error "lvalue index %d out of bounds" k
      else a.(k)

let compile_write ctx (lhs : Ir.lvalue) : frame -> Value.t -> unit =
  match lhs with
  | Lvar (scope, name) ->
    (match scope with
     | Ir.Input -> fun _ _ -> eval_error "assignment to input %s" name
     | Ir.Output | Ir.State | Ir.Local ->
       let tbl =
         match scope with
         | Ir.Output -> ctx.c_out
         | Ir.State -> ctx.c_st
         | Ir.Local -> ctx.c_loc
         | Ir.Input -> assert false
       in
       (match Hashtbl.find_opt tbl name with
        | Some i ->
          (match scope with
           | Ir.Output -> fun fr v -> fr.f_out.(i) <- v
           | Ir.State -> fun fr v -> fr.f_st.(i) <- v
           | Ir.Local -> fun fr v -> fr.f_loc.(i) <- v
           | Ir.Input -> assert false)
        | None ->
          fun _ _ ->
            eval_error "unbound %s variable %s" (Ir.scope_name scope) name))
  | Lindex (inner, idx) ->
    let fl = compile_lvalue_resolve ctx inner in
    let fi = compile_expr ctx idx in
    fun fr v ->
      let a = Value.to_vec (fl fr) in
      let k = Value.to_int (fi fr) in
      if k < 0 || k >= Array.length a then
        eval_error "lvalue index %d out of bounds [0,%d)" k (Array.length a)
      else a.(k) <- v

(* Guard of an [If]: atoms are evaluated left to right into a fresh vector
   (every atom value is observable for condition/MCDC coverage), then the
   whole condition, then one Cond_vector event is emitted. *)
let compile_guard ctx id cond : frame -> bool =
  let atom_fns =
    Array.of_list (List.map (compile_expr ctx) (Ir.atoms_of_condition cond))
  in
  let n = Array.length atom_fns in
  let cond_fn = compile_expr ctx cond in
  fun fr ->
    let vector = Array.make n false in
    for i = 0 to n - 1 do
      vector.(i) <- Value.to_bool (atom_fns.(i) fr)
    done;
    let outcome = Value.to_bool (cond_fn fr) in
    fr.f_emit (Cond_vector { id; vector; outcome });
    outcome

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

let rec compile_stmts ctx (ss : Ir.stmt list) : frame -> unit =
  match List.map (compile_stmt ctx) ss with
  | [] -> fun _ -> ()
  | [ f ] -> f
  | fs ->
    let arr = Array.of_list fs in
    fun fr -> Array.iter (fun f -> f fr) arr

and compile_stmt ctx : Ir.stmt -> frame -> unit = function
  | Ir.Assign (lhs, e) ->
    let fe = compile_expr ctx e in
    let fw = compile_write ctx lhs in
    fun fr ->
      let v = fe fr in
      fw fr v
  | Ir.If { id; cond; then_; else_ } ->
    let guard = compile_guard ctx id cond in
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
  | Ir.Switch { id; scrut; cases; default } ->
    let fs = compile_expr ctx scrut in
    let arms =
      Array.of_list
        (List.map
           (fun (k, ss) -> (Branch_hit (id, Branch.Case k), compile_stmts ctx ss))
           cases)
    in
    let fdef = compile_stmts ctx default in
    let hit_default = Branch_hit (id, Branch.Default) in
    let dispatch = compile_dispatch (List.map fst cases) in
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
  let input_vars = Array.of_list prog.inputs in
  let output_vars = Array.of_list prog.outputs in
  let state_vars = Array.of_list (List.map fst prog.states) in
  let state_init = Array.of_list (List.map snd prog.states) in
  let defaults vars =
    Array.map (fun (v : Ir.var) -> Value.default_of_ty v.ty) vars
  in
  let local_vars = Array.of_list prog.locals in
  let ctx =
    {
      c_inp = index_of_vars prog.inputs;
      c_out = index_of_vars prog.outputs;
      c_st = index_of_vars (List.map fst prog.states);
      c_loc = index_of_vars prog.locals;
    }
  in
  let body = compile_stmts ctx prog.body in
  let branches = Branch.of_program prog in
  let branch_arr = Array.of_list branches in
  (* On a repeated key or decision id (which [Ir.type_check] rejects)
     the last occurrence wins. *)
  let branch_ids = Key_tbl.create (Array.length branch_arr) in
  Array.iteri (fun i (b : Branch.t) -> Key_tbl.replace branch_ids b.key i) branch_arr;
  let req_chains =
    (* Requirement chain of a branch: decisions that must take a specific
       outcome for control to reach it, root-first, including itself. *)
    let rec chain acc (b : Branch.t) =
      let acc = (b.decision, b.outcome) :: acc in
      match b.parent with
      | None -> acc
      | Some p -> chain acc branch_arr.(Key_tbl.find branch_ids p)
    in
    Array.map (chain []) branch_arr
  in
  let decisions = (Ir.decisions_of_program prog :> (int * decision_shape) list) in
  let decision_pos = Int_tbl.create (List.length decisions) in
  List.iteri (fun p (id, _) -> Int_tbl.replace decision_pos id p) decisions;
  let atom_bases = Array.make (List.length decisions + 1) 0 in
  List.iteri
    (fun p ((_ : int), shape) ->
      let atoms =
        match shape with
        | `If cond -> List.length (Ir.atoms_of_condition cond)
        | `Switch _ -> 0
      in
      atom_bases.(p + 1) <- atom_bases.(p) + atoms)
    decisions;
  {
    prog;
    input_vars;
    output_vars;
    state_vars;
    state_init;
    input_defaults = defaults input_vars;
    output_defaults = defaults output_vars;
    local_defaults = defaults local_vars;
    input_index = ctx.c_inp;
    output_index = ctx.c_out;
    state_index = ctx.c_st;
    local_index = ctx.c_loc;
    body;
    branches;
    branch_arr;
    req_chains;
    decisions;
    decision_shapes = Array.of_list (List.map snd decisions);
    branch_ids;
    decision_pos;
    atom_bases;
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
   past [compile]) and freely shareable across domains. *)
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

let program t = t.prog
let input_vars t = t.input_vars
let output_vars t = t.output_vars
let state_vars t = t.state_vars
let n_inputs t = Array.length t.input_vars
let n_states t = Array.length t.state_vars
let input_slot t name = Hashtbl.find_opt t.input_index name
let output_slot t name = Hashtbl.find_opt t.output_index name
let state_slot t name = Hashtbl.find_opt t.state_index name
let local_slot t name = Hashtbl.find_opt t.local_index name

let find_in index arr kind name =
  match Hashtbl.find_opt index name with
  | Some i -> arr.(i)
  | None -> eval_error "unknown %s variable %s" kind name

let find_input t (a : inputs) name = find_in t.input_index a "input" name
let find_output t (a : outputs) name = find_in t.output_index a "output" name
let find_state t (a : state) name = find_in t.state_index a "state" name

(* --- branch / decision metadata (memoized, satellite of the refactor) -- *)

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

let decisions t = t.decisions
let find_decision t id =
  Option.map (Array.get t.decision_shapes) (Int_tbl.find_opt t.decision_pos id)

(* --- objective index ---------------------------------------------------- *)

let n_branches t = Array.length t.branch_arr
let branch_id t key = Key_tbl.find t.branch_ids key
let n_decisions t = Array.length t.atom_bases - 1
let decision_pos t id = Int_tbl.find t.decision_pos id
let atom_base t pos = t.atom_bases.(pos)
let n_atoms t = t.atom_bases.(n_decisions t)

let mcdc_id t decision atom =
  let p = decision_pos t decision in
  if atom < 0 || atom >= t.atom_bases.(p + 1) - t.atom_bases.(p) then
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

let of_list index defaults l =
  let a = Array.map Value.copy defaults in
  List.iter
    (fun (name, v) ->
      match Hashtbl.find_opt index name with
      | Some i -> a.(i) <- v
      | None -> ())
    l;
  a

let inputs_of_list t l : inputs = of_list t.input_index t.input_defaults l
let state_of_list t l : state = of_list t.state_index t.state_init l

(* --- Smap bridge (legacy Interp API, test-case text format) ------------ *)

let state_of_smap t (m : Value.t Smap.t) : state =
  Array.mapi
    (fun i (v : Ir.var) ->
      match Smap.find_opt v.name m with
      | Some x -> x
      | None -> t.state_init.(i))
    t.state_vars

let inputs_of_smap t (m : Value.t Smap.t) : inputs =
  Array.mapi
    (fun i (v : Ir.var) ->
      match Smap.find_opt v.name m with
      | Some x -> x
      | None -> t.input_defaults.(i))
    t.input_vars

let smap_of_arr vars (a : Value.t array) =
  let m = ref Smap.empty in
  Array.iteri (fun i (v : Ir.var) -> m := Smap.add v.name a.(i) !m) vars;
  !m

let smap_of_state t a = smap_of_arr t.state_vars a
let smap_of_inputs t a = smap_of_arr t.input_vars a
let smap_of_outputs t a = smap_of_arr t.output_vars a

(* --- equality / hashing for state dedup -------------------------------- *)

let values_equal (a : Value.t array) (b : Value.t array) =
  a == b
  || (Array.length a = Array.length b
      &&
      let rec go i = i < 0 || (Value.equal a.(i) b.(i) && go (i - 1)) in
      go (Array.length a - 1))

(* Structural hash consistent with [Value.equal]: [equal] identifies
   [Int n] with [Real (float n)] (and [-0.] with [0.]), so both hash via
   the IEEE bits of the normalized float.  NaN payloads other than the
   canonical quiet NaN would collide-or-split, but no Value operation
   produces them. *)
let float_hash_bits r =
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
  let fr =
    {
      f_inp = Array.map Value.copy inp;
      f_out = Array.map Value.copy t.output_defaults;
      f_st = Array.map Value.copy st;
      f_loc = Array.map Value.copy t.local_defaults;
      f_emit = on_event;
    }
  in
  t.body fr;
  (* Copy-out, like the reference path: returned arrays never alias program
     constants or the caller's arrays, so snapshots are immutable-in-fact. *)
  (Array.map Value.copy fr.f_out, Array.map Value.copy fr.f_st)

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
