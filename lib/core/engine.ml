module Exec = Slim.Exec
module Branch = Slim.Branch
module Ir = Slim.Ir
module Tracker = Coverage.Tracker
module Explore = Symexec.Explore
module Analyzer = Analysis.Analyzer
module Verdict = Analysis.Verdict

type config = {
  seed : int;
  budget : float;
  random_seq_len : int;
  solver : Explore.config;
  sort_branches : bool;
  state_aware : bool;
  random_fallback : bool;
  random_first : bool;
  random_first_rounds : int;
  max_tree_nodes : int;
  analyze : bool;
  verdict_priority : bool;
  analysis_config : Analyzer.config;
}

let default_config =
  {
    seed = 1;
    budget = 3600.0;
    random_seq_len = 12;
    solver =
      { Explore.default_config with Explore.max_paths = 32; node_budget = 20_000 };
    sort_branches = true;
    state_aware = true;
    random_fallback = true;
    random_first = false;
    random_first_rounds = 20;
    max_tree_nodes = 30_000;
    analyze = false;
    verdict_priority = false;
    analysis_config = Analyzer.default_config;
  }

let tel_runs = Telemetry.Counter.make "engine.runs"
let tel_steps = Telemetry.Counter.make "engine.steps"
let tel_solve_attempts = Telemetry.Counter.make "engine.solve_attempts"
let tel_solve_sat = Telemetry.Counter.make "engine.solve_sat"
let tel_solve_unsat = Telemetry.Counter.make "engine.solve_unsat"
let tel_solve_unknown = Telemetry.Counter.make "engine.solve_unknown"
let tel_cache_hits = Telemetry.Counter.make "engine.solve_cache_hits"
let tel_stride_skips = Telemetry.Counter.make "engine.stride_skips"
let tel_random_execs = Telemetry.Counter.make "engine.random_execs"
let tel_testcases = Telemetry.Counter.make "engine.testcases"
let tel_tree_nodes = Telemetry.Counter.make "engine.tree_nodes"
let tel_skipped_dead = Telemetry.Counter.make "engine.objectives_skipped_dead"
let tel_pruned_static = Telemetry.Counter.make "engine.solves_pruned_static"
let tel_h_solve_nodes = Telemetry.Histogram.make "engine.solve_nodes"
let tel_sp_run = Telemetry.Span.make "engine.run"
let tel_sp_solve = Telemetry.Span.make "engine.solve"
let tel_sp_random = Telemetry.Span.make "engine.random_exec"

type solve_result = [ `Sat | `Unsat | `Unknown ]

type event =
  | Ev_testcase of Testcase.t
  | Ev_solve of {
      time : float;
      target : Explore.target;
      node : int;
      result : solve_result;
    }
  | Ev_random_exec of { time : float; node : int; len : int }
  | Ev_coverage of { time : float; decision_covered : int }

type stop_reason = Full_coverage | Budget_exhausted

type run = {
  r_config : config;
  r_testcases : Testcase.t list;
  r_tracker : Tracker.t;
  r_tree : State_tree.t;
  r_events : event list;
  r_clock : Vclock.t;
  r_stop : stop_reason;
}

(* A coverage objective with a stable key for the per-node solved set,
   the cursors, the miss counts and the solve cache, and a depth used
   for shallow-first ordering.  Keys are dense integers: a branch
   objective is its branch id and a condition objective is
   [n_branches] plus its condition id (the program's objective index,
   {!Exec.branch_id}); dynamic MC/DC flip targets are interned after
   those (see [intern_vector]). *)
type objective = {
  obj_target : Explore.target;
  obj_key : int;
  obj_depth : int;
}

type state = {
  cfg : config;
  solver_cfg : Explore.config;  (** [cfg.solver] seeded with [cfg.seed] *)
  solver_memo : Explore.memo;  (** the run's propagated fork prefixes *)
  prog : Ir.program;
  exec : Exec.t;  (** compiled handle: slot-addressed execution *)
  tracker : Tracker.t;
  tree : State_tree.t;
  clock : Vclock.t;
  rng : Random.State.t;
  objectives : objective list;  (** traversal order of Algorithm 1 *)
  never_cache : (int, Analyzer.result) Hashtbl.t;
      (** state uid -> one recording pass from that snapshot.  Its
          step-local [Never] facts prove one-step solver queries Unsat
          (the static prune of [verdict_priority]); nodes sharing a
          snapshot share the verdicts *)
  vector_ids : (Explore.target, int) Hashtbl.t;
      (** MC/DC flip target -> objective id, assigned in
          first-encounter order after the static objectives, so a
          regenerated objective for the same vector reuses its id
          (retries stay idempotent) *)
  cursors : int Dynarr.t;
      (** per objective id, the index of the next unattempted tree
          node; nodes are append-only, so attempted pairs are never
          rescanned *)
  misses : int Dynarr.t;
      (** consecutive failed attempts per objective: objectives that
          keep failing are probed on progressively fewer states (the
          back-off the paper's Discussion calls for to stop "multiple
          solving for this type of branch" from eating the budget) *)
  solve_cache : (int, unit) Hashtbl.t Dynarr.t;
      (** per objective id, the state signatures from which it already
          failed to solve: two nodes whose snapshots agree on every solver-relevant
          state slot give identical one-step answers, so re-solving is
          skipped (the "duplicate solving" waste the paper's Discussion
          flags).  Signatures are hashcons ids of constant terms over
          the relevant-slot projection (see [solve_signature]), so
          distinct tree nodes with equal residual state hit the cache
          even when irrelevant slots differ. *)
  relevant_slots : bool array;
      (** per declared state slot: can it influence a solve outcome?
          ({!Explore.relevant_state_slots}) *)
  sig_terms : (int, Solver.Term.t) Hashtbl.t;
      (** state uid -> signature term.  The term itself is kept (not
          just its id) so the weak hashcons table cannot reclaim it and
          later hand its id to a different term mid-run. *)
  mutable mcdc_stamp : int;  (** tracker progress at last MCDC refresh *)
  mutable mcdc_cache : objective list;
  library : Exec.inputs Dynarr.t;  (** all solved inputs, oldest first *)
  mutable events : event list;
  mutable testcases : Testcase.t list;
  mutable next_tc : int;
}

(* The empty failure set every objective starts with; never written. *)
let no_failures : (int, unit) Hashtbl.t = Hashtbl.create 1

let intern_vector st target =
  match Hashtbl.find_opt st.vector_ids target with
  | Some id -> id
  | None ->
    let id = Dynarr.length st.cursors in
    Dynarr.push st.cursors 0;
    Dynarr.push st.misses 0;
    Dynarr.push st.solve_cache no_failures;
    Hashtbl.replace st.vector_ids target id;
    id

(* Project a snapshot onto the solver-relevant state slots.  Short
   snapshot arrays fall back to the declared initial value — the same
   contract by which [Sym_value.env_of_program] fills the state slots of
   its register file, so states the solver sees as equal project
   equal. *)
let relevant_projection st snapshot =
  let vals = ref [] in
  List.iteri
    (fun i ((_ : Ir.var), init) ->
      if st.relevant_slots.(i) then begin
        let value =
          if i < Array.length snapshot then snapshot.(i) else init
        in
        vals := value :: !vals
      end)
    st.prog.Ir.states;
  Array.of_list (List.rev !vals)

(* Semantic solve-cache key for a tree node: the hashcons id of a
   constant [Vec] term over the node's relevant-slot projection.  The
   solve outcome for a given objective is a deterministic function of
   that projection (the per-call solver RNG is seeded from the config
   seed and the target decision only), so equal signatures guarantee
   equal answers.  Memoized per state uid. *)
let solve_signature st (node : State_tree.node) =
  let uid = node.State_tree.state_uid in
  match Hashtbl.find st.sig_terms uid with
  | t -> Solver.Term.id t
  | exception Not_found ->
    let t =
      if not st.cfg.state_aware then
        (* state-blind ablation: the solver never reads the snapshot,
           so every node shares one signature *)
        Solver.Term.cbool false
      else
        Solver.Term.cst
          (Slim.Value.Vec (relevant_projection st node.State_tree.state))
    in
    Hashtbl.replace st.sig_terms uid t;
    Solver.Term.id t

let objective_covered st obj =
  match obj.obj_target with
  | Explore.Branch_target key -> Tracker.is_branch_covered st.tracker key
  | Explore.Condition_target { decision; atom; value } ->
    Tracker.is_condition_covered st.tracker decision atom value
  | Explore.Vector_target { decision; vector } ->
    Tracker.is_vector_observed st.tracker decision vector

let emit st ev = st.events <- ev :: st.events

(* Record the transition in the state tree unless the node cap is
   reached — the cap bounds memory, never the run itself. *)
let maybe_record st (parent : State_tree.node option) input state' =
  match parent with
  | Some parent when State_tree.size st.tree < st.cfg.max_tree_nodes ->
    let child, is_new = State_tree.add_child st.tree ~parent ~input state' in
    if is_new then Telemetry.Counter.incr tel_tree_nodes;
    Some child
  | Some _ | None -> None

(* [steps] is the actual executed sequence: the (replayable) tree path
   of the start node followed by the inputs executed in this episode.
   Using the executed inputs — not the final node's tree path — matters
   because node deduplication may have recorded a different input that
   reaches the same state but covers different branches. *)
let synthesize_testcase st ~steps origin fresh =
  let tc =
    {
      Testcase.tc_id = st.next_tc;
      steps;
      origin;
      found_at = Vclock.now st.clock;
      new_branches = Branch.Key_set.elements fresh;
    }
  in
  st.next_tc <- st.next_tc + 1;
  st.testcases <- tc :: st.testcases;
  Telemetry.Counter.incr tel_testcases;
  emit st (Ev_testcase tc)

(* Dynamic MCDC objectives: for each condition whose independent effect
   is still unshown, propose the unique-cause flip of already observed
   vectors (capped per sweep; keys make retries idempotent per node). *)
let mcdc_objectives st =
  let flips_per_condition = 4 in
  List.concat_map
    (fun (decision, atom) ->
      let observed = Tracker.observed_vectors st.tracker decision in
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | (v, _) :: rest ->
          let flipped = Array.copy v in
          flipped.(atom) <- not flipped.(atom);
          if List.exists (fun (w, _) -> w = flipped) observed then
            take k rest
          else
            Explore.Vector_target { decision; vector = flipped }
            :: take (k - 1) rest
      in
      List.map
        (fun target ->
          { obj_target = target; obj_key = intern_vector st target; obj_depth = 0 })
        (take flips_per_condition observed))
    (Tracker.uncovered_mcdc st.tracker)

(* One recording pass of the abstract analyzer from the node's exact
   snapshot, memoized per state uid.  [record_at]'s [Never] facts mean
   no conforming single step from that state reaches the program point
   — precisely the question [Explore.solve_target] answers — so they
   justify skipping the solve. *)
let record_for st (node : State_tree.node) =
  let uid = node.State_tree.state_uid in
  match Hashtbl.find_opt st.never_cache uid with
  | Some r -> r
  | None ->
    let r =
      Analyzer.record_at ~config:st.cfg.analysis_config st.prog
        ~state:node.State_tree.state
    in
    Hashtbl.replace st.never_cache uid r;
    r

let b3_excludes (b : Solver.Interval.bool3) value =
  if value then not b.Solver.Interval.bt else not b.Solver.Interval.bf

(* Is the one-step query for [obj] from [node]'s snapshot provably
   Unsat?  Branches need [Never] reach; condition and vector targets
   are also dead when an involved atom can never take the requested
   value on the paths that reach the decision. *)
let statically_unsat st node obj =
  let r = record_for st node in
  match obj.obj_target with
  | Explore.Branch_target key -> Analyzer.branch_reach r key = Analyzer.Never
  | Explore.Condition_target { decision; atom; value } -> (
    match Analyzer.guard_fact r decision with
    | Some g ->
      g.Analyzer.g_reach = Analyzer.Never
      || (atom < Array.length g.Analyzer.g_atoms
          && b3_excludes g.Analyzer.g_atoms.(atom) value)
    | None -> false)
  | Explore.Vector_target { decision; vector } -> (
    match Analyzer.guard_fact r decision with
    | Some g ->
      g.Analyzer.g_reach = Analyzer.Never
      || (Array.length vector = Array.length g.Analyzer.g_atoms
          && Array.exists2 b3_excludes g.Analyzer.g_atoms vector)
    | None -> false)

let miss st obj =
  Dynarr.set st.misses obj.obj_key (1 + Dynarr.get st.misses obj.obj_key)

(* Remember that [obj] failed to solve from states with [signature]. *)
let record_failure st obj signature =
  let failed = Dynarr.get st.solve_cache obj.obj_key in
  if failed == no_failures then begin
    let failed = Hashtbl.create 8 in
    Hashtbl.replace failed signature ();
    Dynarr.set st.solve_cache obj.obj_key failed
  end
  else Hashtbl.replace failed signature ()

type sweep = Exhausted | Expired | Solved of State_tree.node * Exec.inputs

(* One objective's sweep over the tree nodes from [id] to [size - 1],
   stopping at the first that solves. *)
let rec sweep_nodes st obj size id =
  if id >= size then begin
    Dynarr.set st.cursors obj.obj_key id;
    Exhausted
  end
  else if Vclock.expired st.clock then begin
    Dynarr.set st.cursors obj.obj_key id;
    Expired
  end
  else if id mod (1 lsl min 5 (Dynarr.get st.misses obj.obj_key / 40)) <> 0
  then begin
    (* back-off: this objective failed many times in a row; probe only
       a thinning subset of new states *)
    Telemetry.Counter.incr tel_stride_skips;
    sweep_nodes st obj size (id + 1)
  end
  else begin
    let node = State_tree.node st.tree id in
    let signature = solve_signature st node in
    if State_tree.is_solved node obj.obj_key then sweep_nodes st obj size (id + 1)
    else if Hashtbl.mem (Dynarr.get st.solve_cache obj.obj_key) signature then begin
      Telemetry.Counter.incr tel_cache_hits;
      sweep_nodes st obj size (id + 1)
    end
    else if st.cfg.verdict_priority && statically_unsat st node obj then begin
      (* provably Unsat from this snapshot: replay the solver's Unsat
         bookkeeping exactly (solved mark, cache entry, miss count) so
         cursor, stride and cache behaviour — and therefore the emitted
         test cases — match a run without pruning, but charge no solver
         time *)
      Telemetry.Counter.incr tel_pruned_static;
      State_tree.mark_solved node obj.obj_key;
      record_failure st obj signature;
      miss st obj;
      sweep_nodes st obj size (id + 1)
    end
    else begin
      State_tree.mark_solved node obj.obj_key;
      Telemetry.Counter.incr tel_solve_attempts;
      let outcome, cost =
        Telemetry.Span.with_ tel_sp_solve
          ~note:(fun () -> Fmt.str "%a" Explore.pp_target obj.obj_target)
          (fun () ->
            Explore.solve_target ~config:st.solver_cfg
              ~symbolic_state:(not st.cfg.state_aware) ~memo:st.solver_memo
              st.prog
              ~state:node.state ~target:obj.obj_target)
      in
      Telemetry.Histogram.observe tel_h_solve_nodes cost.Explore.solver_nodes;
      (match outcome with
       | Explore.Sat _ -> ()
       | Explore.Unsat | Explore.Unknown -> record_failure st obj signature);
      Vclock.charge_solve st.clock cost;
      let result : solve_result =
        match outcome with
        | Explore.Sat _ -> `Sat
        | Explore.Unsat -> `Unsat
        | Explore.Unknown -> `Unknown
      in
      Telemetry.Counter.incr
        (match result with
         | `Sat -> tel_solve_sat
         | `Unsat -> tel_solve_unsat
         | `Unknown -> tel_solve_unknown);
      emit st
        (Ev_solve
           { time = Vclock.now st.clock; target = obj.obj_target; node = node.id; result });
      match outcome with
      | Explore.Sat (input :: _) ->
        Dynarr.push st.library input;
        Dynarr.set st.cursors obj.obj_key id;
        Dynarr.set st.misses obj.obj_key 0;
        Solved (node, input)
      | Explore.Sat [] | Explore.Unsat | Explore.Unknown ->
        miss st obj;
        sweep_nodes st obj size (id + 1)
    end
  end

(* Algorithm 1: state-aware solving.  Returns the first (node, input)
   that solves an open objective, static objectives first, or None when
   no (open objective, state) pair yields a solution.  A per-objective
   cursor into the append-only node list makes re-sweeps cost only the
   new work. *)
let state_aware_solving st =
  if Tracker.progress st.tracker <> st.mcdc_stamp then begin
    st.mcdc_stamp <- Tracker.progress st.tracker;
    st.mcdc_cache <- mcdc_objectives st
  end;
  let rec try_objectives objs later =
    match objs with
    | [] -> if later == [] then None else try_objectives later []
    | obj :: rest ->
      if objective_covered st obj then try_objectives rest later
      else
        match
          sweep_nodes st obj (State_tree.size st.tree)
            (Dynarr.get st.cursors obj.obj_key)
        with
        | Exhausted -> try_objectives rest later
        | Expired -> None
        | Solved (node, input) -> Some (node, input)
  in
  try_objectives st.objectives st.mcdc_cache

(* An episode from [node]: [len] steps with inputs drawn from [next],
   each recorded in the tree, ending early when the budget runs out if
   [stop_on_expiry].  A step that covers a new branch records the
   coverage; if the episode did, the executed sequence becomes a test
   case of the given origin. *)
let run_episode st (node : State_tree.node) ~origin ~len ?(stop_on_expiry = true)
    next =
  let m = Tracker.mark st.tracker in
  let rec steps snapshot node_opt executed k =
    if k = 0 || (stop_on_expiry && Vclock.expired st.clock) then executed
    else begin
      let input = next () in
      let step_mark = Tracker.mark st.tracker in
      let _, state' =
        Exec.run_step ~on_event:(Tracker.observe st.tracker) st.exec snapshot input
      in
      Vclock.charge_steps st.clock 1;
      Telemetry.Counter.incr tel_steps;
      if Tracker.mark st.tracker <> step_mark then
        emit st
          (Ev_coverage
             {
               time = Vclock.now st.clock;
               decision_covered = (Tracker.decision st.tracker).Tracker.covered;
             });
      steps state' (maybe_record st node_opt input state') (input :: executed) (k - 1)
    end
  in
  let executed = steps node.State_tree.state (Some node) [] len in
  let fresh = Tracker.fresh_since st.tracker m in
  if not (Branch.Key_set.is_empty fresh) then begin
    let steps = State_tree.path_inputs st.tree node @ List.rev executed in
    synthesize_testcase st ~steps origin fresh
  end

(* Algorithm 2, random mode: a random sequence of previously solved
   inputs executed from a random tree node.  Sequences are bursty —
   each step repeats the previous input with probability 1/2 — because
   reaching saturation-style states needs sustained stimuli (the
   paper's own example: "the constructed sequence contains enough
   operations of adding CPU tasks").  Node selection mixes uniform
   choice with a bias toward recently added (deep) nodes so progress
   into large state spaces compounds across rounds. *)
let random_execution st =
  Telemetry.Counter.incr tel_random_execs;
  Telemetry.Span.with_ tel_sp_random @@ fun () ->
  let node =
    if Random.State.bool st.rng then State_tree.random_node st.tree st.rng
    else begin
      (* among the most recent quarter of the tree *)
      let size = State_tree.size st.tree in
      let lo = size - 1 - (size / 4) in
      State_tree.node st.tree (lo + Random.State.int st.rng (size - lo))
    end
  in
  let len = st.cfg.random_seq_len in
  emit st
    (Ev_random_exec { time = Vclock.now st.clock; node = node.id; len });
  let fresh_input () =
    let n = Dynarr.length st.library in
    if n = 0 then Exec.random_inputs st.rng st.exec
    else begin
      (* bias toward recently solved inputs: they target the deep
         objectives currently being chased.  Index [i] counts back from
         the newest (the list this replaced was newest-first), so the
         RNG draws and the sampled distribution are unchanged. *)
      let bound = if Random.State.bool st.rng then min 8 n else n in
      Dynarr.get st.library (n - 1 - Random.State.int st.rng bound)
    end
  in
  let previous = ref None in
  let pick_input () =
    match !previous with
    | Some input when Random.State.bool st.rng -> input
    | Some _ | None ->
      let input = fresh_input () in
      previous := Some input;
      input
  in
  run_episode st node ~origin:Testcase.Random_exec ~len pick_input

(* Optional hybrid prelude (paper Discussion): cheap random exploration
   before any solving. *)
let random_first_phase st =
  let rounds = st.cfg.random_first_rounds in
  for _ = 1 to rounds do
    if not (Vclock.expired st.clock) && not (Tracker.fully_covered st.tracker)
    then begin
      let node = State_tree.random_node st.tree st.rng in
      run_episode st node ~origin:Testcase.Random_exec ~len:st.cfg.random_seq_len
        ~stop_on_expiry:false (fun () -> Exec.random_inputs st.rng st.exec)
    end
  done

(* Verdict-priority worklist order: statically [Reachable] objectives
   first — the solver is guaranteed progress on them, so they seed the
   tree and the input library before the open-ended [Unknown] chase.
   The partition is stable, so the depth-sorted (cost-ascending) order
   the pool's cost scheduling relies on is preserved within each
   class. *)
let order_by_verdict summary objs =
  match summary with
  | None -> objs
  | Some s ->
    let hot obj =
      match obj.obj_target with
      | Explore.Branch_target key ->
        Verdict.branch s key = Verdict.Reachable
      | Explore.Condition_target { decision; atom; value } ->
        Verdict.condition s decision atom value = Verdict.Reachable
      | Explore.Vector_target _ -> false
    in
    let first, rest = List.partition hot objs in
    first @ rest

(* Every coverage requirement satisfied: decision, condition and MCDC. *)
let all_requirements_met tracker =
  let full (r : Tracker.ratio) = r.Tracker.covered = r.Tracker.total in
  Tracker.fully_covered tracker
  && full (Tracker.condition tracker)
  && full (Tracker.mcdc tracker)

let run ?(config = default_config) prog =
  Telemetry.Counter.incr tel_runs;
  Telemetry.Span.with_ tel_sp_run @@ fun () ->
  let exec = Exec.handle prog in
  let tracker = Tracker.create prog in
  (* Static dead-objective detection: proven-dead objectives are
     justified in the tracker (removed from every denominator) and
     filtered from the worklists below, so the solver never burns
     budget on them — SLDV-style dead-logic justification. *)
  let summary0 =
    if not config.analyze then None
    else Some (Verdict.of_program ~config:config.analysis_config prog)
  in
  let dead_branch, dead_cond =
    match summary0 with
    | None -> ((fun _ -> false), fun _ -> false)
    | Some s ->
      let db = Verdict.dead_branches s in
      let dc = Verdict.dead_conditions s in
      let dm = Verdict.dead_mcdc s in
      Tracker.set_justified tracker ~branches:db ~conditions:dc ~mcdc:dm;
      Telemetry.Counter.add tel_skipped_dead
        (List.length db + List.length dc + List.length dm);
      ( (fun key -> List.exists (Branch.equal_key key) db),
        fun c -> List.mem c dc )
  in
  let tree = State_tree.create prog in
  let clock = Vclock.create ~budget:config.budget in
  let n_branches = Exec.n_branches exec in
  let branch_objectives =
    (* branch table comes precomputed from the handle *)
    let bs = Exec.branches exec in
    let bs = if config.sort_branches then Branch.sort_by_depth bs else bs in
    let bs = List.filter (fun (b : Branch.t) -> not (dead_branch b.key)) bs in
    List.map
      (fun (b : Branch.t) ->
        {
          obj_target = Explore.Branch_target b.key;
          obj_key = Exec.branch_id exec b.key;
          obj_depth = b.depth;
        })
      bs
  in
  (* Condition objectives, shallow decisions first, after the branch
     objectives (branches usually cover most condition outcomes along
     the way). *)
  let condition_objectives =
    let depth_of_decision d =
      match Exec.find_branch exec (d, Branch.Then) with
      | Some b -> b.depth
      | None -> 0
    in
    List.concat_map
      (fun pos ->
        let decision = Exec.decision_id exec pos in
        List.concat_map
          (fun atom ->
            List.filter_map
              (fun value ->
                if dead_cond (decision, atom, value) then None
                else
                  Some
                    {
                      obj_target = Explore.Condition_target { decision; atom; value };
                      obj_key =
                        n_branches + Exec.condition_id exec decision atom value;
                      obj_depth = depth_of_decision decision;
                    })
              [ true; false ])
          (List.init (Exec.atom_count exec pos) Fun.id))
      (List.init (Exec.n_decisions exec) Fun.id)
    |> List.stable_sort (fun a b -> Int.compare a.obj_depth b.obj_depth)
  in
  (* per-objective counters, indexed by id: the static objectives now,
     each dynamic MC/DC target as [intern_vector] first meets it *)
  let per_objective init =
    let a = Dynarr.create () in
    for _ = 1 to n_branches + (2 * Exec.n_atoms exec) do
      Dynarr.push a init
    done;
    a
  in
  let st =
    {
      cfg = config;
      solver_cfg = { config.solver with Explore.rng_seed = config.seed };
      solver_memo = Explore.create_memo ();
      prog;
      exec;
      tracker;
      tree;
      clock;
      rng = Random.State.make [| config.seed; 0xC7C6 |];
      objectives =
        (let objs = branch_objectives @ condition_objectives in
         if config.verdict_priority then order_by_verdict summary0 objs
         else objs);
      never_cache = Hashtbl.create 256;
      vector_ids = Hashtbl.create 256;
      cursors = per_objective 0;
      solve_cache = per_objective no_failures;
      relevant_slots = Explore.relevant_state_slots prog;
      sig_terms = Hashtbl.create 1024;
      misses = per_objective 0;
      mcdc_stamp = -1;
      mcdc_cache = [];
      library = Dynarr.create ();
      events = [];
      testcases = [];
      next_tc = 0;
    }
  in
  if config.random_first then random_first_phase st;
  (* MCDC is quadratic in observed vectors; memoize the termination
     check on the tracker's progress stamp (per run). *)
  let met_cache = ref (-1, false) in
  let requirements_met () =
    let stamp = Tracker.progress st.tracker in
    let cached_stamp, cached = !met_cache in
    if stamp = cached_stamp then cached
    else begin
      let result = all_requirements_met st.tracker in
      met_cache := (stamp, result);
      result
    end
  in
  let stop = ref None in
  while !stop = None do
    if requirements_met () then stop := Some Full_coverage
    else if Vclock.expired st.clock then stop := Some Budget_exhausted
    else begin
      match state_aware_solving st with
      | Some (node, input) ->
        (* the solved branch may cover siblings too; any new coverage
           yields a test case (Algorithm 2, lines 21-25) *)
        run_episode st node ~origin:Testcase.Solved ~len:1 ~stop_on_expiry:false
          (fun () -> input)
      | None ->
        if Vclock.expired st.clock then stop := Some Budget_exhausted
        else if st.cfg.random_fallback then random_execution st
        else
          (* no random fallback (ablation): burn a beat of the clock so
             the loop revisits solving as new states appear — or stalls
             out the budget, which the ablation measures *)
          Vclock.charge st.clock 1.0
    end
  done;
  let r_stop = match !stop with Some s -> s | None -> assert false in
  {
    r_config = config;
    r_testcases = List.rev st.testcases;
    r_tracker = st.tracker;
    r_tree = st.tree;
    r_events = List.rev st.events;
    r_clock = st.clock;
    r_stop;
  }

let coverage_timeline run =
  let total = (Tracker.decision run.r_tracker).Tracker.total in
  let pct c = if total = 0 then 100.0 else 100.0 *. float c /. float total in
  List.filter_map
    (function
      | Ev_coverage { time; decision_covered } ->
        Some (time, pct decision_covered)
      | Ev_testcase _ | Ev_solve _ | Ev_random_exec _ -> None)
    run.r_events
