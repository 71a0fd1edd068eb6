module Value = Slim.Value
module Ir = Slim.Ir
module Exec = Slim.Exec
module Branch = Slim.Branch
module Term = Solver.Term
module Csp = Solver.Csp
module Lower = Slim.Lower
module SV = Sym_value

type cost = {
  mutable paths_explored : int;
  mutable solver_nodes : int;
  mutable solver_calls : int;
  mutable term_nodes : int;
}

let zero_cost () =
  { paths_explored = 0; solver_nodes = 0; solver_calls = 0; term_nodes = 0 }

type outcome =
  | Sat of Exec.inputs list
  | Unsat
  | Unknown

type config = {
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
type target =
  | Branch_target of Branch.key
  | Condition_target of { decision : int; atom : int; value : bool }
  | Vector_target of { decision : int; vector : bool array }

let target_decision_of = function
  | Branch_target (d, _) -> d
  | Condition_target { decision; _ } -> decision
  | Vector_target { decision; _ } -> decision

let pp_target ppf = function
  | Branch_target key -> Fmt.pf ppf "branch:%a" Branch.pp_key key
  | Condition_target { decision; atom; value } ->
    Fmt.pf ppf "cond:%d/%d=%b" decision atom value
  | Vector_target { decision; vector } ->
    Fmt.pf ppf "vec:%d/%s" decision
      (String.init (Array.length vector) (fun i ->
           if vector.(i) then 'T' else 'F'))

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

(* A propagated prefix box, and the answers of the arm checks already
   made on it, by arm constraint id.  [Hc4.propagate_and_restore] leaves
   the box as it found it, so a recorded answer is the one a new check
   would give.  The constraint is kept with its answer: the box's HC4
   memo is keyed on term ids, and a constraint the GC reclaimed would
   come back under new ids, so its hits would depend on GC timing. *)
type box = { store : Solver.Hc4.store; arms : (int, Term.t * bool) Hashtbl.t }

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
   setting; a solve over others empties the table first.  [answers] is
   the CSP's own memo of the path conditions solved; it checks its
   binding itself, so neither memo's clears move with the other's.
   [windows] and [paths] hold the conjunctions the walk built, keyed on
   the terms they were built from: a window's and a solved path
   condition's.  They hold for any binding.  One memo serves one engine
   run: its boxes and conjunctions go to the GC with it. *)
type memo = {
  prefixes : (int, Term.t * prefix) Hashtbl.t;
  mutable vars_of : (string * Value.ty) list;  (* physically *)
  mutable layout : Solver.Hc4.layout;  (* of [vars_of], shared by its boxes *)
  mutable init : Solver.Dom.t array;  (* the domains of [vars_of]'s types *)
  mutable hc4_memo_of : bool;
  answers : Csp.memo;
  mutable windows : Term.t array array;  (* [[||]] until the first fork *)
  mutable paths : Term.t array array;  (* [[||]] until the first solve *)
}

let create_memo () =
  {
    prefixes = Hashtbl.create 64;
    vars_of = [];
    layout = Solver.Hc4.layout [];
    init = [||];
    hc4_memo_of = default_config.hc4_memo;
    answers = Csp.create_memo ();
    windows = [||];
    paths = [||];
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
  rng_seed : int;
  mutable rng : Random.State.t option;
      (** made by the first CSP call: most solves make none *)
  hc4_memo : bool;
  memo : memo;
  mutable cached_pc : Term.t list;
  mutable cached_vars : (string * Value.ty) list;
  mutable cached_prefix : prefix;
      (** last propagated prefix, keyed by physical identity of the
          path-condition list and of the variable list — consecutive
          decisions that add no constraint (and no unrolled-step
          variables) share one propagation.  It starts as the empty
          path condition's, which holds for any variables. *)
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

(* The arm outcome [o] selects at [d]: its position among [d]'s
   outcomes.  Every requirement and branch target names an outcome of
   its decision (they come from the branch table); [body] would send
   any other to the else or default arm, the last. *)
let rec index_from (outcomes : Branch.outcome array) o i =
  if i = Array.length outcomes then -1
  else if outcomes.(i) = o then i
  else index_from outcomes o (i + 1)

let arm_index (d : SV.decision) o =
  match index_from d.outcomes o 0 with
  | -1 -> Array.length d.outcomes - 1
  | k -> k

(* The arm the first requirement on [d] selects, or -1. *)
let rec required_arm (d : SV.decision) = function
  | [] -> -1
  | (id, o) :: rest -> if id = d.id then arm_index d o else required_arm d rest

(* Constraints bigger than this would time out in any real solver; the
   size check itself is capped so oversize (exponentially-deep) terms
   from multi-step state threading are rejected in bounded time. *)
let max_term_size = 60_000

(* [Term.conj (List.rev pc)] without the reversed list: [conj] folds
   from the left, so the oldest constraint is the innermost. *)
let rec conj_rev = function
  | [] -> Term.cbool true
  | [ t ] -> t
  | t :: rest -> Term.and_ (conj_rev rest) t

(* Conjunctions keyed on the terms they were built from, in a
   direct-mapped table of [conj_slots] entries: an entry holds the first
   [limit] terms of a path condition (all of them if fewer), then their
   conjunction; [[||]] is empty.  A window conjunction and a path
   condition's are built in different orders, so each has its table.
   An LEDLC run at seed 16 forks on 169 distinct windows and solves 82
   distinct path conditions; 256 slots allocated 0.9% fewer words than
   64 on the stcg-solve benchmark, for four times the table per memo. *)
let conj_slots = 64

let rec terms_hash h i limit = function
  | t :: rest when i < limit ->
    terms_hash (((h * 31) + Term.hash t) land max_int) (i + 1) limit rest
  | _ -> h

(* Whether entry [c] was built from [l]. *)
let rec cached (c : Term.t array) i limit = function
  | t :: rest when i < limit ->
    i < Array.length c - 1 && c.(i) == t && cached c (i + 1) limit rest
  | _ -> i = Array.length c - 1

let rec fill (c : Term.t array) i limit = function
  | t :: rest when i < limit ->
    c.(i) <- t;
    fill c (i + 1) limit rest
  | _ -> i

let rec length_upto limit n = function
  | _ :: rest when n < limit -> length_upto limit (n + 1) rest
  | _ -> n

let slot limit l = terms_hash 0 0 limit l land (conj_slots - 1)

(* Entry [c] refilled from [l] and [conj], or a new entry when the
   length differs. *)
let recache (c : Term.t array) limit l conj =
  let k = length_upto limit 0 l in
  let c = if Array.length c = k + 1 then c else Array.make (k + 1) conj in
  c.(fill c 0 limit l) <- conj;
  c

let last (c : Term.t array) = c.(Array.length c - 1)

(* [conj_rev pc], from the memo when it holds [pc]'s very terms. *)
let path_conj memo pc =
  if Array.length memo.paths = 0 then memo.paths <- Array.make conj_slots [||];
  let k = slot max_int pc in
  let c = memo.paths.(k) in
  if cached c 0 max_int pc then last c
  else begin
    let conj = conj_rev pc in
    memo.paths.(k) <- recache c max_int pc conj;
    conj
  end

(* A repeated path condition is answered from the run's CSP memo before
   the solve's RNG is made, so a replay makes none. *)
let try_solve ctx pc =
  let constraint_ = path_conj ctx.memo pc in
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
    let problem = { Csp.p_vars = !(ctx.vars); p_constraint = constraint_ } in
    let memo = ctx.memo.answers and hc4_memo = ctx.hc4_memo in
    let result, stats =
      match Csp.recall memo ~node_budget ~hc4_memo problem with
      | Some replayed -> replayed
      | None ->
        if Option.is_none ctx.rng then
          ctx.rng <- Some (Random.State.make [| ctx.rng_seed; ctx.target_decision |]);
        Csp.solve ~node_budget ~hc4_memo ~rng:(Option.get ctx.rng) ~memo problem
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
   decisions share it via [cached_prefix] without a lookup).  Every
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
    let init = Array.of_list (List.map (fun (_, ty) -> Solver.Dom.of_ty ty) vars) in
    memo.layout <- Solver.Hc4.layout vars;
    memo.init <- init;
    memo.hc4_memo_of <- ctx.hc4_memo
  end;
  match Hashtbl.find memo.prefixes (Term.id w) with
  | _, p ->
    Telemetry.Counter.incr tel_memo_hits;
    p
  | exception Not_found ->
    Telemetry.Counter.incr tel_memo_misses;
    let store =
      Solver.Hc4.create ~memo:ctx.hc4_memo memo.layout (Array.copy memo.init)
    in
    let p =
      match Solver.Hc4.propagate ~max_rounds:3 store w with
      | `Ok -> Pf_box { store; arms = Hashtbl.create 8 }
      | `Unsat -> Pf_unsat
    in
    if Hashtbl.length memo.prefixes >= memo_cap then clear_memo memo;
    Hashtbl.replace memo.prefixes (Term.id w) (w, p);
    p

(* Whether one of the first [k] constraints of a path condition is
   oversize. *)
let rec window_oversize k = function
  | t :: rest when k > 0 ->
    Term.size_capped 2_000 t >= 2_000 || window_oversize (k - 1) rest
  | _ -> false

(* [acc] and the first [k] constraints of a path condition, folded as
   [Term.conj] folds a list. *)
let rec window_conj acc k = function
  | t :: rest when k > 0 -> window_conj (Term.and_ acc t) (k - 1) rest
  | _ -> acc

(* The window conjunction of a non-empty, not oversize [pc], from the
   memo when it holds the very terms of [pc]'s window. *)
let fork_window memo pc =
  if Array.length memo.windows = 0 then memo.windows <- Array.make conj_slots [||];
  let k = slot prefix_window pc in
  let c = memo.windows.(k) in
  if cached c 0 prefix_window pc then last c
  else
    match pc with
    | [] -> invalid_arg "fork_window"
    | t :: rest ->
      let w = window_conj t (prefix_window - 1) rest in
      memo.windows.(k) <- recache c prefix_window pc w;
      w

(* No path condition holds a constant: an arm adds its constraint only
   when it does not fold, and so does a fired objective. *)
let fork_prefix ctx pc =
  let vars = !(ctx.vars) in
  if ctx.cached_pc == pc && ctx.cached_vars == vars then ctx.cached_prefix
  else begin
    let p =
      match pc with
      | [] -> Pf_any
      | _ :: _ ->
        (* deep multi-step terms make even propagation expensive: treat
           oversize prefixes as unconstraining rather than walk them *)
        if window_oversize prefix_window pc then Pf_any
        else memo_prefix ctx (fork_window ctx.memo pc)
    in
    ctx.cached_pc <- pc;
    ctx.cached_vars <- vars;
    ctx.cached_prefix <- p;
    p
  end

let prune () =
  Telemetry.Counter.incr tel_prunes;
  false

(* An arm taken concretely adds nothing to the path condition: it is
   open unless the prefix itself is contradictory. *)
let arm_open = function Pf_unsat -> prune () | Pf_any | Pf_box _ -> true

(* An arm with its own branch constraint [c]. *)
let arm_feasible prefix c =
  match prefix with
  | Pf_unsat -> prune ()
  | Pf_any -> true
  | Pf_box box -> (
    if Term.size_capped 2_000 c >= 2_000 then true
    else
      match Hashtbl.find box.arms (Term.id c) with
      | _, feasible -> feasible || prune ()
      | exception Not_found ->
        let feasible =
          match Solver.Hc4.propagate_and_restore ~max_rounds:3 box.store c with
          | `Ok -> true
          | `Unsat -> false
        in
        Hashtbl.replace box.arms (Term.id c) (c, feasible);
        feasible || prune ())

(* The arm a fork visits first: the target's own, else the one its
   ancestor chain prefers, if the decision has it; -1 for none. *)
let rec preferred_arm (d : SV.decision) = function
  | [] -> -1
  | (id, o) :: rest ->
    if id = d.id then index_from d.outcomes o 0 else preferred_arm d rest

let first_arm ctx (d : SV.decision) =
  match ctx.target with
  | Branch_target (t, o) when t = d.id -> arm_index d o
  | Branch_target _ | Condition_target _ | Vector_target _ ->
    preferred_arm d ctx.preferred

(* A condition or vector objective fires as soon as the guard of its
   decision is about to be evaluated; the rest of the step is not
   walked.  Every atom is evaluated first, left to right. *)
let fire ctx env (d : SV.decision) pc =
  let terms = SV.atom_terms env d in
  let n = Array.length terms in
  let c =
    match ctx.target with
    | Condition_target { atom; value; _ } ->
      if atom < 0 then invalid_arg "Explore: negative atom"
      else if atom >= n then Term.cbool false
      else if value then terms.(atom)
      else Term.not_ terms.(atom)
    | Vector_target { vector; _ } ->
      if n <> Array.length vector then Term.cbool false
      else if n = 0 then Term.cbool true
      else begin
        (* [Term.conj] of the literals: all of them first, then the fold *)
        for k = 0 to n - 1 do
          if not vector.(k) then terms.(k) <- Term.not_ terms.(k)
        done;
        let c = ref terms.(0) in
        for k = 1 to n - 1 do
          c := Term.and_ !c terms.(k)
        done;
        !c
      end
    | Branch_target _ -> Term.cbool false
  in
  match Term.view c with
  | Term.Cst (Value.Bool true) -> hit_target ctx pc
  | Term.Cst _ -> ()
  | _ -> hit_target ctx (c :: pc)

(* Walk the mirror from [node] to the end of the step, then call
   [at_end] with the path condition there.  A decision on the target's
   ancestor chain takes its required arm ([take]); any other forks
   ([fork]), the preferred arm first, each arm a direct call that runs
   to the end of the step and then rolls the undo trail back to the
   fork's mark.  Guards, assignments and arm constraints come from the
   mirror's memos, and the conjunctions of prefix windows and solved
   path conditions from the run's memo, so a walk that meets the values
   of an earlier one builds no term: every term it hands HC4 and the
   CSP, and every charge, are the ones a fresh evaluation would give.
   Entering the target branch solves the path condition; success raises
   [Found].  [Found], [Path_budget] and [Sym_error] end the whole
   search, so they need no roll-back. *)
let rec walk ctx env at_end (node : SV.node) pc =
  match node with
  | SV.End_of_step -> at_end pc
  | SV.Copy { next; _ } | SV.Assign { next; _ } ->
    SV.assign env node;
    walk ctx env at_end next pc
  | SV.Decide d -> (
    match d.stmt, ctx.target with
    | Lower.If _, (Condition_target _ | Vector_target _)
      when d.id = ctx.target_decision ->
      fire ctx env d pc
    | _, _ ->
      let g = SV.guard env d in
      let req = required_arm d ctx.required in
      if req >= 0 then take ctx env at_end d g req pc
      else begin
        let first = first_arm ctx d in
        let prefix = fork_prefix ctx pc and mark = SV.mark env in
        if first >= 0 then fork ctx env at_end d g prefix mark first pc;
        for k = 0 to Array.length d.outcomes - 1 do
          if first < 0 || d.outcomes.(k) <> d.outcomes.(first) then
            fork ctx env at_end d g prefix mark k pc
        done
      end)

(* The required arm: no fork, no path spent, and the prefix is
   propagated only when the arm is not constantly false. *)
and take ctx env at_end d g k pc =
  match SV.arm d g k with
  | SV.Not_taken -> ()
  | SV.Taken -> if arm_open (fork_prefix ctx pc) then enter ctx env at_end d k pc
  | SV.Constraint c ->
    if arm_feasible (fork_prefix ctx pc) c then enter ctx env at_end d k (c :: pc)

(* Arm [k] of a fork, rolled back to [mark] when it returns. *)
and fork ctx env at_end d g prefix mark k pc =
  match SV.arm d g k with
  | SV.Not_taken -> ()
  | SV.Taken ->
    if arm_open prefix then begin
      spend_path ctx;
      enter ctx env at_end d k pc;
      SV.undo env mark
    end
  | SV.Constraint c ->
    if arm_feasible prefix c then begin
      spend_path ctx;
      enter ctx env at_end d k (c :: pc);
      SV.undo env mark
    end

and enter ctx env at_end (d : SV.decision) k pc =
  match ctx.target with
  | Branch_target (t, o) when t = d.id && o = d.outcomes.(k) -> hit_target ctx pc
  | Branch_target _ | Condition_target _ | Vector_target _ ->
    walk ctx env at_end d.arms.(k) pc

let make_ctx (cfg : config) ex target ~memo ~vars ~multi =
  let reqs = requirements ex target in
  {
    cost = zero_cost ();
    vars;
    required = (if multi then [] else reqs);
    preferred = reqs;
    target;
    target_decision = target_decision_of target;
    rng_seed = cfg.rng_seed;
    rng = None;
    hc4_memo = cfg.hc4_memo;
    memo;
    cached_pc = [];
    cached_vars = !vars;
    cached_prefix = Pf_any;
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
    let d = SV.decision env pos in
    match target, d.stmt with
    | Branch_target (_, outcome), Lower.If { input_state_only = true; _ } -> (
      let t = SV.scalar (SV.guard env d) in
      match SV.outcome_arm outcome t ~case_labels:[] with
      | SV.Constraint c -> Some c
      | SV.Taken | SV.Not_taken -> None)
    | ( Branch_target (_, outcome),
        Lower.Switch { labels; input_state_only = true; _ } ) -> (
      let t = SV.scalar (SV.guard env d) in
      match SV.outcome_arm outcome t ~case_labels:labels with
      | SV.Constraint c -> Some c
      | SV.Taken | SV.Not_taken -> None)
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
    match walk ctx env ignore (SV.entry env) pc0 with
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
  let entry = SV.entry env in
  let rec run_step step pc =
    if step < horizon then begin
      try walk ctx env (end_of_step step) entry pc
      with Found a ->
        (* the innermost handler fires first and pins the hit step *)
        if !depth_of_found = None then depth_of_found := Some step;
        raise (Found a)
    end
  and end_of_step step pc =
    start_step (step + 1);
    run_step (step + 1) pc
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

(* --- state relevance -------------------------------------------------- *)

(* Slots read under [e]; with [~index], only those read in index
   position anywhere under it: their values pick array elements and
   decide concrete out-of-bounds aborts, so they influence solve
   outcomes even when the surrounding expression never reaches a
   guard. *)
let rec slots ~index acc (e : Lower.expr) =
  match e with
  | Lower.Const _ | Lower.Unbound _ -> acc
  | Lower.Slot s -> if index then acc else s :: acc
  | Lower.Unop (_, a) -> slots ~index acc a
  | Lower.Binop (_, a, b) | Lower.Cmp (_, a, b) | Lower.And (a, b) | Lower.Or (a, b) ->
    slots ~index (slots ~index acc a) b
  | Lower.Ite (c, a, b) -> slots ~index (slots ~index (slots ~index acc c) a) b
  | Lower.Index (a, i) -> slots ~index (slots ~index:false acc i) a

let rec lvalue_index_slots acc = function
  | Lower.Lslot _ | Lower.Lunbound _ -> acc
  | Lower.Lindex (l, i) ->
    lvalue_index_slots (slots ~index:true (slots ~index:false acc i) i) l

let relevant_state_slots (prog : Ir.program) : bool array =
  let lp = Exec.lowered (Exec.handle prog) in
  let relevant = Array.make lp.n_slots false in
  let mark = List.iter (fun s -> relevant.(s) <- true) in
  (* seeds: everything a guard or scrutinee reads, plus every slot read
     in index position anywhere *)
  let assigns =
    Lower.fold
      (fun acc -> function
        | Lower.Assign (lhs, e) -> (
          mark (lvalue_index_slots (slots ~index:true [] e) lhs);
          match Lower.lvalue_root lhs with
          | Some root ->
            (root, lvalue_index_slots (slots ~index:false [] e) lhs) :: acc
          | None -> acc)
        | Lower.If { cond = g; _ } | Lower.Switch { scrut = g; _ } ->
          mark (slots ~index:false [] g);
          acc)
      [] lp.body
  in
  (* flow-insensitive closure over slot sets: an assignment to a
     relevant slot makes every slot its right-hand side (and lvalue
     indices) reads relevant too.  Control dependences need no extra
     step — every guard slot is already a seed. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (root, deps) ->
        if relevant.(root) && List.exists (fun s -> not relevant.(s)) deps then begin
          mark deps;
          changed := true
        end)
      assigns
  done;
  Array.sub relevant lp.n_inputs lp.n_states
