(* The one-step walk as it was before constant folding: every value a
   hash-consed term ([Scalar]), a fresh register file per solve, and a
   CPS walk with one closure per decision.  Kept, apart from the
   compile counters and the target printer, as an independent
   reference for the differential property in
   test_symexec.ml.  It counts into the same telemetry counters as
   [Symexec.Explore]. *)

module Value = Slim.Value
module Ir = Slim.Ir
module Exec = Slim.Exec
module Branch = Slim.Branch
module Term = Solver.Term
module Csp = Solver.Csp
module Lower = Slim.Lower

module SV = struct
  module L = Slim.Lower

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

  let build (prog : Ir.program) =
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
end

type cost = Symexec.Explore.cost = {
  mutable paths_explored : int;
  mutable solver_nodes : int;
  mutable solver_calls : int;
  mutable term_nodes : int;
}

let zero_cost () =
  { paths_explored = 0; solver_nodes = 0; solver_calls = 0; term_nodes = 0 }

type outcome = Symexec.Explore.outcome =
  | Sat of Exec.inputs list
  | Unsat
  | Unknown

type config = Symexec.Explore.config = {
  max_paths : int;
  node_budget : int;
  rng_seed : int;
  hc4_memo : bool;
}

let default_config =
  { max_paths = 192; node_budget = 60_000; rng_seed = 1; hc4_memo = true }

(* A coverage objective the solver can aim at.  Branch targets are the
   paper's Algorithm 1; condition and vector targets extend the same
   machinery to condition and MCDC requirements ("until all the
   coverage requirements are satisfied", Section III). *)
type target = Symexec.Explore.target =
  | Branch_target of Branch.key
  | Condition_target of { decision : int; atom : int; value : bool }
  | Vector_target of { decision : int; vector : bool array }

let target_decision_of = function
  | Branch_target (d, _) -> d
  | Condition_target { decision; _ } -> decision
  | Vector_target { decision; _ } -> decision

(* Ancestor requirements: decision id -> outcome that must be taken to
   stay on the path to the target.  For a branch target the chain
   includes the target decision's own outcome; for condition / vector
   targets it stops at the decision's parent (any outcome of the target
   decision satisfies the objective once its guard is evaluated).
   The chains come precomputed from the compiled handle, so repeated
   solves against the same program no longer rebuild the branch table. *)
let requirements ex (target : target) =
  match target with
  | Branch_target key -> Exec.branch_chain ex key
  | Condition_target { decision; _ } | Vector_target { decision; _ } ->
    Exec.decision_chain ex decision

exception Found of Value.t Csp.Smap.t
exception Path_budget

let tel_solves = Telemetry.Counter.make "symexec.solves"
let tel_sat = Telemetry.Counter.make "symexec.sat"
let tel_unsat = Telemetry.Counter.make "symexec.unsat"
let tel_unknown = Telemetry.Counter.make "symexec.unknown"
let tel_paths = Telemetry.Counter.make "symexec.paths"
let tel_prunes = Telemetry.Counter.make "symexec.prunes"
let tel_solver_nodes = Telemetry.Counter.make "symexec.solver_nodes"
let tel_h_paths = Telemetry.Histogram.make "symexec.paths_per_solve"
let tel_seed_sym_error = Telemetry.Counter.make "symexec.seed_sym_error"
let tel_memo_hits = Telemetry.Counter.make "symexec.prefix_memo_hits"
let tel_memo_misses = Telemetry.Counter.make "symexec.prefix_memo_misses"
let tel_memo_clears = Telemetry.Counter.make "symexec.prefix_memo_clears"

(* Why a search ended [Unknown]: the first cap or failure it hit.
   Constant constructors, so recording one allocates nothing. *)
type unknown_cause =
  | No_unknown
  | Term_cap
  | Node_budget
  | Solver_unknown
  | Path_budget_hit
  | Sym_error

let tel_unknown_term_cap = Telemetry.Counter.make "symexec.unknown.term_cap"
let tel_unknown_node_budget =
  Telemetry.Counter.make "symexec.unknown.node_budget"
let tel_unknown_solver = Telemetry.Counter.make "symexec.unknown.solver"
let tel_unknown_path_budget =
  Telemetry.Counter.make "symexec.unknown.path_budget"
let tel_unknown_sym_error = Telemetry.Counter.make "symexec.unknown.sym_error"

(* Constraint for taking [outcome] of a decision whose guard/scrutinee
   symbolically evaluates to [t]. *)
let outcome_constraint (outcome : Branch.outcome) (t : Term.t) ~case_labels =
  let term =
    match outcome with
    | Branch.Then -> t
    | Branch.Else -> Term.not_ t
    | Branch.Case k -> Term.cmp Ir.Eq (Term.unop Ir.To_int t) (Term.cint k)
    | Branch.Default ->
      Term.conj
        (List.map
           (fun k ->
             Term.not_ (Term.cmp Ir.Eq (Term.unop Ir.To_int t) (Term.cint k)))
           case_labels)
  in
  match Term.is_const term with
  | Some (Value.Bool true) -> `Taken
  | Some _ -> `Not_taken
  | None -> `Constraint term

(* A propagated prefix box, and the answers of the arm checks already
   made on it, by arm constraint id.  [Hc4.propagate_and_restore] leaves
   the box as it found it, so a recorded answer is the one a new check
   would give. *)
type box = { store : Solver.Hc4.store; arms : (int, bool) Hashtbl.t }

(* Shared feasibility prefix for the sibling arms of one fork: the path
   condition is propagated once per decision; each arm then only checks
   its own branch constraint against the resulting box. *)
type prefix =
  | Pf_unsat  (** the path condition itself is contradictory *)
  | Pf_any  (** empty or oversize prefix: no pruning information *)
  | Pf_box of box  (** propagated box for the prefix window *)

(* Propagated prefixes by the id of their window conjunction (the term
   is kept, so its id stays in use).  A fresh store propagated once is a
   function of the initial bindings and the term alone, so the entries
   hold for every solve over the same variable list and [hc4_memo]
   setting; a solve over others empties the table first.  One memo
   serves one engine run: its boxes go to the GC with it. *)
type memo = {
  prefixes : (int, Term.t * prefix) Hashtbl.t;
  mutable vars_of : (string * Value.ty) list;  (* physically *)
  mutable bindings : (string * Solver.Dom.t) list;  (* built from [vars_of] *)
  mutable hc4_memo_of : bool;
}

let create_memo () =
  {
    prefixes = Hashtbl.create 64;
    vars_of = [];
    bindings = [];
    hc4_memo_of = default_config.hc4_memo;
  }

type ctx = {
  cost : cost;
  vars : (string * Value.ty) list ref;
  required : (int * Branch.outcome) list;
      (** empty in multi-step mode: every decision forks *)
  preferred : (int * Branch.outcome) list;
      (** soft guidance for multi-step search: the target's ancestor
          chain, explored first at each fork *)
  target : target;
  target_decision : int;
  rng : Random.State.t;
  hc4_memo : bool;
  memo : memo;
  mutable prefix_cache :
    (Term.t list * (string * Value.ty) list * prefix) option;
      (** last propagated prefix, keyed by physical identity of the
          path-condition list and of the variable list — consecutive
          decisions that add no constraint (and no unrolled-step
          variables) share one propagation *)
  mutable remaining_nodes : int;
  mutable paths_left : int;
  mutable unknown : unknown_cause;  (** the first cause seen *)
}

let note_unknown ctx cause =
  if ctx.unknown = No_unknown then ctx.unknown <- cause

let tel_finish ctx outcome =
  let cost = ctx.cost in
  if Telemetry.enabled () then begin
    Telemetry.Counter.incr tel_solves;
    Telemetry.Counter.add tel_paths cost.paths_explored;
    Telemetry.Counter.add tel_solver_nodes cost.solver_nodes;
    Telemetry.Histogram.observe tel_h_paths cost.paths_explored;
    match outcome with
    | Sat _ -> Telemetry.Counter.incr tel_sat
    | Unsat -> Telemetry.Counter.incr tel_unsat
    | Unknown -> (
      Telemetry.Counter.incr tel_unknown;
      match ctx.unknown with
      | Term_cap -> Telemetry.Counter.incr tel_unknown_term_cap
      | Node_budget -> Telemetry.Counter.incr tel_unknown_node_budget
      | Solver_unknown -> Telemetry.Counter.incr tel_unknown_solver
      | Path_budget_hit -> Telemetry.Counter.incr tel_unknown_path_budget
      | Sym_error -> Telemetry.Counter.incr tel_unknown_sym_error
      (* unreachable: every [Unknown] records its cause first *)
      | No_unknown -> ())
  end;
  (outcome, cost)

(* The outcome of a search that ran to completion without a model. *)
let exhausted ctx = if ctx.unknown = No_unknown then Unsat else Unknown

(* A symbolic-evaluation failure ends the search [Unknown]. *)
let sym_error ctx =
  note_unknown ctx Sym_error;
  Unknown

let required_outcome ctx id = List.assoc_opt id ctx.required

(* Constraints bigger than this would time out in any real solver; the
   size check itself is capped so oversize (exponentially-deep) terms
   from multi-step state threading are rejected in bounded time. *)
let max_term_size = 60_000

let try_solve ctx pc =
  let constraint_ = Term.conj (List.rev pc) in
  ctx.cost.solver_calls <- ctx.cost.solver_calls + 1;
  let size = Term.size_capped max_term_size constraint_ in
  ctx.cost.term_nodes <- ctx.cost.term_nodes + size;
  if size >= max_term_size then begin
    note_unknown ctx Term_cap;
    None
  end
  else if ctx.remaining_nodes <= 0 then begin
    note_unknown ctx Node_budget;
    None
  end
  else begin
    (* every search node re-evaluates the constraint, so scale the node
       budget down for big constraints to bound the work per query *)
    let node_budget =
      min ctx.remaining_nodes (max 50 (4_000_000 / max 1 size))
    in
    let result, stats =
      Csp.solve ~node_budget ~hc4_memo:ctx.hc4_memo ~rng:ctx.rng
        { Csp.p_vars = !(ctx.vars); p_constraint = constraint_ }
    in
    ctx.remaining_nodes <- ctx.remaining_nodes - stats.Csp.nodes;
    ctx.cost.solver_nodes <- ctx.cost.solver_nodes + stats.Csp.nodes;
    match result with
    | Csp.Sat a -> Some a
    | Csp.Unsat -> None
    | Csp.Unknown ->
      note_unknown ctx Solver_unknown;
      None
  end

let hit_target ctx pc =
  match try_solve ctx pc with
  | Some a -> raise (Found a)
  | None -> ()

let spend_path ctx =
  if ctx.paths_left <= 0 then begin
    note_unknown ctx Path_budget_hit;
    raise Path_budget
  end;
  ctx.paths_left <- ctx.paths_left - 1;
  ctx.cost.paths_explored <- ctx.cost.paths_explored + 1

let infeasible pc =
  List.exists (fun t -> Term.is_const t = Some (Value.Bool false)) pc

(* Cheap interval-propagation feasibility for fork arms: prunes arms
   whose path condition is already contradictory (e.g. [bank = 0] from
   an earlier decision against [bank = 2] here), which keeps walks over
   ladders of decisions on the same inputs linear instead of
   exponential.  The propagation is bounded to the most recent
   constraints: refuting a subset refutes the whole, and ladder
   contradictions live between nearby conjuncts, so a small window
   keeps the per-fork cost constant on deep (multi-step) paths.

   The window over the shared path condition is propagated once per
   run ([fork_prefix] through the [memo]; consecutive constraint-free
   decisions share it via [prefix_cache] without a lookup).  Every
   sibling arm then propagates only its own branch constraint on the
   prefix box, which [Hc4.propagate_and_restore] leaves as it found it
   ([arm_feasible]), and the box records the answer for later solves
   that fork on the same window. *)
let prefix_window = 9

(* Several times the prefixes an engine run propagates (685 on
   TWC at seed 16, the most of the registry models); a memo that
   reaches it starts over, and counts the clear. *)
let memo_cap = 4096

let clear_memo memo =
  if Hashtbl.length memo.prefixes > 0 then begin
    Telemetry.Counter.incr tel_memo_clears;
    Hashtbl.reset memo.prefixes
  end

(* The propagated prefix of window conjunction [w], from the memo or
   propagated now and recorded.  A propagation that raises records
   nothing, so the next lookup raises again. *)
let memo_prefix ctx w =
  let memo = ctx.memo and vars = !(ctx.vars) in
  if memo.vars_of != vars || memo.hc4_memo_of <> ctx.hc4_memo then begin
    clear_memo memo;
    memo.vars_of <- vars;
    memo.bindings <- List.map (fun (x, ty) -> (x, Solver.Dom.of_ty ty)) vars;
    memo.hc4_memo_of <- ctx.hc4_memo
  end;
  match Hashtbl.find memo.prefixes (Term.id w) with
  | _, p ->
    Telemetry.Counter.incr tel_memo_hits;
    p
  | exception Not_found ->
    Telemetry.Counter.incr tel_memo_misses;
    let store = Solver.Hc4.create_store ~memo:ctx.hc4_memo memo.bindings in
    let p =
      match Solver.Hc4.propagate ~max_rounds:3 store w with
      | `Ok -> Pf_box { store; arms = Hashtbl.create 8 }
      | `Unsat -> Pf_unsat
    in
    if Hashtbl.length memo.prefixes >= memo_cap then clear_memo memo;
    Hashtbl.replace memo.prefixes (Term.id w) (w, p);
    p

let fork_prefix ctx pc =
  match ctx.prefix_cache with
  | Some (cached_pc, cached_vars, p)
    when cached_pc == pc && cached_vars == !(ctx.vars) ->
    p
  | _ ->
    let p =
      match pc with
      | [] -> Pf_any
      | _ when infeasible pc -> Pf_unsat
      | _ ->
        let window =
          let rec take k = function
            | t :: rest when k > 0 -> t :: take (k - 1) rest
            | _ -> []
          in
          take prefix_window pc
        in
        (* deep multi-step terms make even propagation expensive: treat
           oversize prefixes as unconstraining rather than walk them *)
        if List.exists (fun t -> Term.size_capped 2_000 t >= 2_000) window
        then Pf_any
        else memo_prefix ctx (Term.conj window)
    in
    ctx.prefix_cache <- Some (pc, !(ctx.vars), p);
    p

(* [c_opt] is the arm's own branch constraint, [None] for arms taken
   concretely (which add nothing to the path condition). *)
let arm_feasible prefix c_opt =
  let feasible =
    match prefix, c_opt with
    | Pf_unsat, _ -> false
    | (Pf_any | Pf_box _), None -> true
    | Pf_any, Some _ -> true
    | Pf_box box, Some c -> (
      if Term.size_capped 2_000 c >= 2_000 then true
      else
        match Hashtbl.find box.arms (Term.id c) with
        | feasible -> feasible
        | exception Not_found ->
          let feasible =
            match
              Solver.Hc4.propagate_and_restore ~max_rounds:3 box.store c
            with
            | `Ok -> true
            | `Unsat -> false
          in
          Hashtbl.replace box.arms (Term.id c) feasible;
          feasible)
  in
  if not feasible then Telemetry.Counter.incr tel_prunes;
  feasible

(* Walk a statement list in CPS over the environment's register file.
   [k] receives the path condition at the end of the list.  Entering the
   target branch solves the accumulated path condition immediately;
   success raises [Found].  Assignments go through the undo trail: each
   arm of a fork rolls the environment back to the fork's mark when it
   returns, so the next arm starts from the same state.  [Found],
   [Path_budget] and [Sym_error] end the whole search, so they need no
   roll-back. *)
let rec walk ctx env (stmts : Lower.stmt list) pc k =
  match stmts with
  | [] -> k pc
  | Lower.Assign (lhs, e) :: rest ->
    let v = SV.eval env e in
    SV.assign env lhs v;
    walk ctx env rest pc k
  | Lower.If { id; cond; atoms; then_; else_; _ } :: rest -> (
    (* condition / vector objectives fire as soon as the guard of the
       target decision is about to be evaluated *)
    let atoms_spec =
      if id = ctx.target_decision then
        match ctx.target with
        | Condition_target { atom; value; _ } -> Some (`Cond (atom, value))
        | Vector_target { vector; _ } -> Some (`Vec vector)
        | Branch_target _ -> None
      else None
    in
    match atoms_spec with
    | Some spec -> (
      let terms = List.map (fun a -> SV.scalar (SV.eval env a)) atoms in
      let c =
        match spec with
        | `Cond (i, v) -> (
          match List.nth_opt terms i with
          | Some t -> if v then t else Term.not_ t
          | None -> Term.cbool false)
        | `Vec vec ->
          if List.length terms <> Array.length vec then Term.cbool false
          else
            Term.conj
              (List.mapi (fun i t -> if vec.(i) then t else Term.not_ t) terms)
      in
      match Term.is_const c with
      | Some (Value.Bool true) -> hit_target ctx pc
      | Some _ -> ()
      | None -> hit_target ctx (c :: pc))
    | None -> (
      let t = SV.scalar (SV.eval env cond) in
      let arm outcome =
        let body = if outcome = Branch.Then then then_ else else_ in
        match outcome_constraint outcome t ~case_labels:[] with
        | `Taken -> Some (body, pc, None)
        | `Not_taken -> None
        | `Constraint c -> Some (body, c :: pc, Some c)
      in
      let order () =
        match ctx.target with
        | Branch_target (d, o) when d = id ->
          [ o; (if o = Branch.Then then Branch.Else else Branch.Then) ]
        | Branch_target _ | Condition_target _ | Vector_target _ -> (
          match List.assoc_opt id ctx.preferred with
          | Some Branch.Else -> [ Branch.Else; Branch.Then ]
          | Some (Branch.Then | Branch.Case _ | Branch.Default) | None ->
            [ Branch.Then; Branch.Else ])
      in
      decide ctx env id arm order pc (fun pc -> walk ctx env rest pc k)))
  | Lower.Switch { id; scrut; labels; cases; default; outcomes; _ } :: rest ->
    let t = SV.scalar (SV.eval env scrut) in
    let arm outcome =
      let body =
        match outcome with
        | Branch.Case c ->
          (match List.assoc_opt c cases with
           | Some b -> b
           | None -> default)
        | Branch.Default | Branch.Then | Branch.Else -> default
      in
      match outcome_constraint outcome t ~case_labels:labels with
      | `Taken -> Some (body, pc, None)
      | `Not_taken -> None
      | `Constraint c -> Some (body, c :: pc, Some c)
    in
    let order () =
      match ctx.target with
      | Branch_target (d, o) when d = id ->
        o :: List.filter (fun x -> x <> o) outcomes
      | Branch_target _ | Condition_target _ | Vector_target _ -> (
        match List.assoc_opt id ctx.preferred with
        | Some o when List.mem o outcomes ->
          o :: List.filter (fun x -> x <> o) outcomes
        | Some _ | None -> outcomes)
    in
    decide ctx env id arm order pc (fun pc -> walk ctx env rest pc k)

(* One decision: take the required outcome when the target's ancestor
   chain fixes it, otherwise fork over [order ()], rolling the environment
   back after each arm.  [arm] gives an outcome's body, path condition
   and own constraint, or [None] when the outcome is constantly false. *)
and decide ctx env id arm order pc continue_ =
  let enter outcome body pc =
    match ctx.target with
    | Branch_target (d, o) when d = id && o = outcome -> hit_target ctx pc
    | Branch_target _ | Condition_target _ | Vector_target _ ->
      walk ctx env body pc continue_
  in
  match required_outcome ctx id with
  | Some req -> (
    match arm req with
    | Some (body, pc', c_opt) ->
      if arm_feasible (fork_prefix ctx pc) c_opt then enter req body pc'
    | None -> ())
  | None ->
    let prefix = fork_prefix ctx pc in
    let mark = SV.mark env in
    List.iter
      (fun outcome ->
        match arm outcome with
        | None -> ()
        | Some (body, pc', c_opt) ->
          if arm_feasible prefix c_opt then begin
            spend_path ctx;
            enter outcome body pc';
            SV.undo env mark
          end)
      (order ())

let make_ctx cfg ex target ~memo ~vars ~multi =
  let reqs = requirements ex target in
  {
    cost = zero_cost ();
    vars;
    required = (if multi then [] else reqs);
    preferred = reqs;
    target;
    target_decision = target_decision_of target;
    rng = Random.State.make [| cfg.rng_seed; target_decision_of target |];
    hc4_memo = cfg.hc4_memo;
    memo;
    prefix_cache = None;
    remaining_nodes = cfg.node_budget;
    paths_left = cfg.max_paths;
    unknown = No_unknown;
  }

(* When the target's own guard reads only inputs and state, it has the
   same value on every path, so the target's outcome constraint can seed
   the path condition and prune every incompatible fork from the start —
   goal-directed search. *)
let seed_constraint ex env (target : target) =
  match Exec.decision_pos ex (target_decision_of target) with
  | exception Not_found -> None
  | pos -> (
    match target, (SV.lowered env).decisions.(pos) with
    | Branch_target (_, outcome), Lower.If { cond; input_state_only = true; _ } -> (
      let t = SV.scalar (SV.eval env cond) in
      match outcome_constraint outcome t ~case_labels:[] with
      | `Constraint c -> Some c
      | `Taken | `Not_taken -> None)
    | ( Branch_target (_, outcome),
        Lower.Switch { scrut; labels; input_state_only = true; _ } ) -> (
      let t = SV.scalar (SV.eval env scrut) in
      match outcome_constraint outcome t ~case_labels:labels with
      | `Constraint c -> Some c
      | `Taken | `Not_taken -> None)
    | ( Condition_target { atom; value; _ },
        Lower.If { atoms; input_state_only = true; _ } ) -> (
      match List.nth_opt atoms atom with
      | Some a ->
        let t = SV.scalar (SV.eval env a) in
        let c = if value then t else Term.not_ t in
        (match Term.is_const c with Some _ -> None | None -> Some c)
      | None -> None)
    | _, _ -> None)

let input_var name _ty = Term.var name

let solve_target ?(config = default_config) ?(symbolic_state = false)
    ?(memo = create_memo ()) prog ~state ~target =
  let ex = Exec.handle prog in
  let env, vars = SV.env_of_program ~symbolic_state prog ~state ~input_var in
  let ctx = make_ctx config ex target ~memo ~vars:(ref vars) ~multi:false in
  ctx.cost.paths_explored <- ctx.cost.paths_explored + 1;
  let pc0 =
    match seed_constraint ex env target with
    | Some c -> [ c ]
    | None -> []
    | exception SV.Sym_error _ ->
      if Telemetry.enabled () then Telemetry.Counter.incr tel_seed_sym_error;
      []
  in
  let outcome =
    match walk ctx env (SV.lowered env).body pc0 (fun _ -> ()) with
    | () -> exhausted ctx
    | exception Found a -> Sat [ SV.inputs_of_assignment prog a ]
    | exception Path_budget -> Unknown
    | exception SV.Sym_error _ -> sym_error ctx
  in
  tel_finish ctx outcome

let solve_branch ?config ?symbolic_state prog ~state ~target =
  solve_target ?config ?symbolic_state prog ~state
    ~target:(Branch_target target)

(* Multi-step (SLDV-like): thread state symbolically across [horizon]
   unrolled steps; the target may be reached in any step; every decision
   forks, which is exactly the whole-trace path explosion the paper's
   state-aware method avoids. *)
let solve_branch_multi ?(config = default_config) prog ~horizon ~target =
  let ex = Exec.handle prog in
  let initial = Exec.initial_state ex in
  let env, vars0 =
    SV.env_of_program ~prefix:"s0$" prog ~state:initial ~input_var
  in
  let vars = ref vars0 in
  let ctx =
    make_ctx config ex (Branch_target target) ~memo:(create_memo ()) ~vars
      ~multi:true
  in
  let depth_of_found = ref None in
  (* Step [k]'s input variables are made, and added to the solver's
     variables, on the first path that reaches step [k]; later paths
     reuse them. *)
  let step_inputs = Array.make (max 1 (horizon + 1)) None in
  let start_step step =
    let inputs =
      match step_inputs.(step) with
      | Some inputs -> inputs
      | None ->
        let inputs, vs =
          SV.step_inputs env ~prefix:(Fmt.str "s%d$" step) ~input_var
        in
        step_inputs.(step) <- Some inputs;
        vars := List.rev_append vs !vars;
        inputs
    in
    SV.start_step env inputs
  in
  let body = (SV.lowered env).body in
  let rec run_step step pc =
    if step < horizon then begin
      try
        walk ctx env body pc (fun pc' ->
            start_step (step + 1);
            run_step (step + 1) pc')
      with Found a ->
        (* the innermost handler fires first and pins the hit step *)
        if !depth_of_found = None then depth_of_found := Some step;
        raise (Found a)
    end
  in
  let outcome =
    match run_step 0 [] with
    | () -> exhausted ctx
    | exception Found a ->
      let steps = Option.value ~default:0 !depth_of_found + 1 in
      Sat
        (List.init steps (fun k ->
             SV.inputs_of_assignment ~prefix:(Fmt.str "s%d$" k) prog a))
    | exception Path_budget -> Unknown
    | exception SV.Sym_error _ -> sym_error ctx
  in
  tel_finish ctx outcome
