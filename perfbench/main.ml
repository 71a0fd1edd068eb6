(* STCG benchmark driver.

   Runs one named workload for a wall-clock window and prints, as the
   last line of stdout, one JSON object

     {"correct": _, "attempted": _, "failed": _, "metrics": {...}}

   With [--trace 0] the metrics are the end-to-end ones, measured with
   telemetry off.  With [--trace 1] they are the per-layer ledger: one
   pass runs with telemetry on, and the benchmark then replays the
   calls that pass made into each layer's public functions (taken from
   the run's public record: engine events, state tree, test cases) and
   times them.  No code outside this directory is instrumented for the
   benchmark.  README.md documents every workload and metric. *)

module Exec = Slim.Exec
module Branch = Slim.Branch
module Tracker = Coverage.Tracker
module Explore = Symexec.Explore
module Engine = Stcg.Engine
module State_tree = Stcg.State_tree
module Testcase = Stcg.Testcase
module Run_result = Stcg.Run_result

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)

let now_s () = Int64.to_float (Telemetry.Monotonic_clock.now_ns ()) *. 1e-9

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [measure f] runs [f] once: (result, seconds, words allocated). *)
let measure f =
  let w0 = allocated_words () in
  let t0 = now_s () in
  let r = f () in
  let dt = now_s () -. t0 in
  (r, dt, allocated_words () -. w0)

let median xs =
  let s = Array.of_list (List.sort compare xs) in
  let n = Array.length s in
  if n = 0 then 0.0
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let mean xs = ratio (List.fold_left ( +. ) 0.0 xs) (float (List.length xs))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type job = { model : string; seed : int }

type workload = Jobs of job list | Fuzz of { count : int; max_steps : int }

(* [per_model] STCG jobs per model, with tool seeds derived from the
   workload seed and disjoint across workload seeds. *)
let seeded_jobs ~seed ~per_model models =
  List.concat_map
    (fun model -> List.init per_model (fun k -> { model; seed = (seed * 16) + k }))
    models

(* Why each workload exists is recorded in README.md and
   BENCHMARK.json; in short: solving-bound engine runs, exploration-
   bound engine runs, and the only workload that runs the analyzer. *)
let workload name ~seed =
  match name with
  | "stcg-solve" -> Some (Jobs (seeded_jobs ~seed ~per_model:2 [ "UTPC"; "LEDLC" ]))
  | "stcg-explore" ->
    Some (Jobs (seeded_jobs ~seed ~per_model:1 [ "CPUTask"; "TWC"; "NICProtocol" ]))
  | "fuzz" -> Some (Fuzz { count = 50; max_steps = 8 })
  | _ -> None

let workload_names = [ "stcg-solve"; "stcg-explore"; "fuzz" ]

(* ------------------------------------------------------------------ *)
(* Set-up: build the programs from their sources and compile handles  *)

let build_program name =
  match Models.Registry.find name with
  | None -> invalid_arg ("unknown model " ^ name)
  | Some e -> (
    match e.Models.Registry.source with
    | Models.Registry.Src_diagram m -> Slim.Compile.to_program (m ())
    | Models.Registry.Src_chart c -> Stateflow.Sf_compile.to_program (c ())
    | Models.Registry.Src_program p -> p ())

(* The fuzz workload is always the first cases of the campaign with
   seed 0: a case's cost is heavy-tailed in its model (one model in a
   hundred can take a quarter of the campaign, almost all of it in the
   analyzer), so fresh cases per workload seed made the campaign's wall
   time vary by 2x from seed to seed.  Fifty cases keep a pass short
   enough for several passes per window. *)
let fuzz_campaign_seed = 0

(* A case as [Campaign.run_case] draws it, built at set-up for the
   coverage metric and the per-layer replay. *)
type fuzz_case = {
  fc_index : int;
  fc_seed : int;  (** oracle seed *)
  fc_prog : Slim.Ir.program;
  fc_inputs : (string * Slim.Value.t) list list;
}

let fuzz_case ~max_steps i =
  let model, _, gen_inputs =
    Fuzzer.Campaign.case_gen ~seed:fuzz_campaign_seed ~max_steps i
  in
  let prog = Fuzzer.Gen.program_of model in
  ignore (Exec.handle prog);
  {
    fc_index = i;
    fc_seed = Fuzzer.Campaign.case_seed ~seed:fuzz_campaign_seed i;
    fc_prog = prog;
    fc_inputs = gen_inputs prog;
  }

type prepared =
  | Progs of (string * Slim.Ir.program) list
  | Cases of fuzz_case list

let setup = function
  | Jobs jobs ->
    let models =
      List.fold_left
        (fun acc j -> if List.mem j.model acc then acc else acc @ [ j.model ])
        [] jobs
    in
    Progs
      (List.map
         (fun m ->
           let p = build_program m in
           ignore (Exec.handle p);
           (m, p))
         models)
  | Fuzz { count; max_steps } -> Cases (List.init count (fuzz_case ~max_steps))

(* Take at least [min_reps] set-up samples and spend at least [min_s]
   seconds; keep the last set-up and push every sample onto [samples].
   A sample is the mean over a batch of back-to-back set-ups lasting at
   least 20 ms, since one set-up of a small workload takes well under a
   millisecond. *)
let timed_setup ~samples ~min_reps ~min_s wl =
  let rec batch k spent =
    let p, dt, _ = measure (fun () -> setup wl) in
    if spent +. dt >= 0.02 then (p, (spent +. dt) /. float (k + 1), spent +. dt)
    else batch (k + 1) (spent +. dt)
  in
  let rec go k spent =
    let p, sample, dt = batch 0 0.0 in
    samples := sample :: !samples;
    if k + 1 >= min_reps && spent +. dt >= min_s then p else go (k + 1) (spent +. dt)
  in
  go 0 0.0

(* ------------------------------------------------------------------ *)
(* One pass                                                            *)

type job_result = {
  jr_job : job;
  jr_prog : Slim.Ir.program;
  jr_rr : Run_result.t;
  jr_run : Engine.run option;  (** dropped once [after] has seen it *)
}

let run_job prog job =
  let r = Engine.run ~config:{ Engine.default_config with Engine.seed = job.seed } prog in
  (Run_result.of_engine_run ~model:job.model r, r)

(* Output check from outside the engine: every emitted test case,
   replayed with [Exec.run_sequence] from the initial state on a fresh
   tracker, covers the branches it claims, and the suite together
   covers exactly the branches the run reports. *)
let testcases_replay prog (rr : Run_result.t) =
  let ex = Exec.handle prog in
  let suite = Tracker.create prog in
  let each_ok =
    List.for_all
      (fun (tc : Testcase.t) ->
        let tr = Tracker.create prog in
        let observe ev =
          Tracker.observe tr ev;
          Tracker.observe suite ev
        in
        match
          Exec.run_sequence ~on_event:observe ex (Exec.initial_state ex)
            tc.Testcase.steps
        with
        | _ -> List.for_all (Tracker.is_branch_covered tr) tc.Testcase.new_branches
        | exception _ -> false)
      rr.Run_result.testcases
  in
  each_ok
  && Branch.Key_set.equal
       (Tracker.covered_branches suite)
       (Tracker.covered_branches rr.Run_result.tracker)

(* What a pass produced, reduced to the deterministic quantities that
   must repeat exactly from pass to pass. *)
type summary = {
  decision : float;
  condition : float;
  mcdc : float;
  testcases : int;
  live_words : float;
  fingerprints : Digest.t list;  (** one per op, compared across passes *)
  ops : int;
  failed : int;
}

type pass = {
  p_summary : summary;
  p_op_s : float list;  (** seconds per op (job or fuzz case) *)
  p_wall : float;  (** their sum *)
  p_words : float;
  p_verdicts : (string * Fuzzer.Oracle.verdict) list list;  (** fuzz, per case *)
}

let fingerprint v = Digest.string (Marshal.to_string v [ Marshal.No_sharing ])

(* Runs [op] on each item, timing each call on its own.  Between calls,
   untimed: the words still live after a full collection are recorded
   while the op's result is held, [post] maps the result, and the heap
   is compacted, so no op is charged for collecting the garbage of the
   op before it. *)
let timed_ops ~post op items =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest ->
      let r, dt, w = measure (fun () -> op x) in
      let live = float (Gc.stat ()).Gc.live_words in
      let r = post r in
      Gc.compact ();
      go ((r, dt, w, live) :: acc) rest
  in
  let rows = go [] items in
  let results = List.map (fun (r, _, _, _) -> r) rows in
  let op_s = List.map (fun (_, dt, _, _) -> dt) rows in
  let words = List.fold_left (fun a (_, _, w, _) -> a +. w) 0.0 rows in
  let live = mean (List.map (fun (_, _, _, l) -> l) rows) in
  (results, op_s, words, live)

let pass_of summary op_s words ~verdicts =
  {
    p_summary = summary;
    p_op_s = op_s;
    p_wall = List.fold_left ( +. ) 0.0 op_s;
    p_words = words;
    p_verdicts = verdicts;
  }

let run_jobs_pass ?after progs jobs =
  let op job =
    let prog = List.assoc job.model progs in
    let rr, r = run_job prog job in
    { jr_job = job; jr_prog = prog; jr_rr = rr; jr_run = Some r }
  in
  (* the pass keeps each job's result but not its engine run *)
  let post jr =
    Option.iter (fun f -> f jr) after;
    { jr with jr_run = None }
  in
  let results, op_s, words, live = timed_ops ~post op jobs in
  let rrs = List.map (fun jr -> jr.jr_rr) results in
  List.iter2
    (fun jr dt ->
      let rr = jr.jr_rr in
      Printf.eprintf "  %s seed %d: %.3f s  cov %.1f/%.1f/%.1f  tcs %d\n%!" jr.jr_job.model
        jr.jr_job.seed dt (Run_result.decision_pct rr) (Run_result.condition_pct rr)
        (Run_result.mcdc_pct rr) (List.length rr.Run_result.testcases))
    results op_s;
  let failed =
    List.length (List.filter (fun jr -> not (testcases_replay jr.jr_prog jr.jr_rr)) results)
  in
  let summary =
    {
      decision = mean (List.map Run_result.decision_pct rrs);
      condition = mean (List.map Run_result.condition_pct rrs);
      mcdc = mean (List.map Run_result.mcdc_pct rrs);
      testcases = List.length (List.concat_map (fun rr -> rr.Run_result.testcases) rrs);
      live_words = live;
      fingerprints =
        List.map
          (fun (rr : Run_result.t) ->
            fingerprint
              ( Run_result.decision_pct rr,
                Run_result.condition_pct rr,
                Run_result.mcdc_pct rr,
                rr.Run_result.testcases,
                rr.Run_result.final_time ))
          rrs;
      ops = List.length jobs;
      failed;
    }
  in
  pass_of summary op_s words ~verdicts:[]

(* Coverage the fuzz cases' own input rows reach on their models: the
   fuzz workload's counterpart of the engine workloads' coverage. *)
let fuzz_coverage cases =
  let covs =
    List.map
      (fun fc ->
        let ex = Exec.handle fc.fc_prog in
        let tr = Tracker.create fc.fc_prog in
        let rows = List.map (Exec.inputs_of_list ex) fc.fc_inputs in
        (try
           ignore
             (Exec.run_sequence ~on_event:(Tracker.observe tr) ex
                (Exec.initial_state ex) rows)
         with Exec.Eval_error _ | Slim.Value.Type_error _ -> ());
        ( Tracker.pct (Tracker.decision tr),
          Tracker.pct (Tracker.condition tr),
          Tracker.pct (Tracker.mcdc tr) ))
      cases
  in
  ( mean (List.map (fun (d, _, _) -> d) covs),
    mean (List.map (fun (_, c, _) -> c) covs),
    mean (List.map (fun (_, _, m) -> m) covs) )

(* Each case exactly as a campaign judges it; a failing case is shrunk
   and counts as failed. *)
let run_fuzz_pass ~max_steps cases (decision, condition, mcdc) =
  let judged, op_s, words, live =
    timed_ops ~post:Fun.id
      (fun fc ->
        Fuzzer.Campaign.run_case ~seed:fuzz_campaign_seed ~max_steps fc.fc_index)
      cases
  in
  let verdicts = List.map (fun ((c : Fuzzer.Campaign.case), _) -> c.c_verdicts) judged in
  let ok ((c : Fuzzer.Campaign.case), failure) =
    failure = None && List.for_all (fun (_, v) -> v = Fuzzer.Oracle.Pass) c.c_verdicts
  in
  let summary =
    {
      decision;
      condition;
      mcdc;
      testcases = List.length cases;
      live_words = live;
      fingerprints = List.map fingerprint verdicts;
      ops = List.length cases;
      failed = List.length (List.filter (fun j -> not (ok j)) judged);
    }
  in
  pass_of summary op_s words ~verdicts

(* [run_pass wl ?after prepared] runs one pass on the programs of
   [prepared]: [after] sees each job's result, untimed, before the
   pass drops its engine run. *)
let run_pass wl ?after prepared =
  match wl, prepared with
  | Jobs jobs, Progs progs -> run_jobs_pass ?after progs jobs
  | Fuzz { max_steps; _ }, Cases cases ->
    run_fuzz_pass ~max_steps cases (fuzz_coverage cases)
  | Jobs _, Cases _ | Fuzz _, Progs _ -> invalid_arg "run_pass"

(* Ops of a pass whose outputs differ from the first pass's. *)
let drift first (p : summary) =
  let rec go a b =
    match a, b with
    | x :: xs, y :: ys -> (if Digest.equal x y then 0 else 1) + go xs ys
    | [], rest | rest, [] -> List.length rest
  in
  go first.fingerprints p.fingerprints

(* Seconds of a pass in which every op takes its fastest time over
   [passes].  Other tenants of a shared host slow whole stretches of a
   run, by up to 1.7x on the fuzz workload; the fastest time of each op
   is the one least affected. *)
let fastest_pass passes =
  match passes with
  | [] -> 0.0
  | p :: rest ->
    List.fold_left ( +. ) 0.0
      (List.fold_left (fun acc q -> List.map2 Float.min acc q.p_op_s) p.p_op_s rest)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "  %-36s %20s %s\n" x.m_name (json_number x.m_value) x.m_unit)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.m_name
              (json_number x.m_value) x.m_unit)
          metrics))

let mb words = words *. float (Sys.word_size / 8) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* End-to-end run (telemetry off)                                      *)

(* Passes a run always makes, whatever the window: the drift check and
   the per-op minimum need several. *)
let min_passes = 3

let run_end_to_end ~name wl ~seconds =
  let samples = ref [] in
  let t0 = now_s () in
  (* Set-up samples are taken after each pass, so they spread over the
     whole window; each pass runs on the previous set-up.  After
     [min_passes], a pass starts only if one more pass of the last
     one's length still ends inside the window. *)
  let rec loop prepared passes =
    Gc.compact ();
    let p = run_pass wl prepared in
    let prepared = timed_setup ~samples ~min_reps:5 ~min_s:0.2 wl in
    Printf.eprintf "%s: pass %d  %.3f s\n%!" name (List.length passes + 1) p.p_wall;
    let passes = p :: passes in
    if List.length passes < min_passes || now_s () -. t0 +. p.p_wall <= float seconds
    then loop prepared passes
    else List.rev passes
  in
  let passes = loop (setup wl) [] in
  let first = (List.hd passes).p_summary in
  let failed =
    List.fold_left (fun n p -> n + p.p_summary.failed + drift first p.p_summary) 0 passes
  in
  let attempted = List.fold_left (fun n p -> n + p.p_summary.ops) 0 passes in
  Printf.printf "workload %s: %d passes (median pass %.3f s), %d set-up samples\n" name
    (List.length passes)
    (median (List.map (fun p -> p.p_wall) passes))
    (List.length !samples);
  print_result ~correct:(failed = 0) ~attempted ~failed
    [
      m "wall_s" "s" (fastest_pass passes);
      m "setup_s" "s" (List.fold_left Float.min infinity !samples);
      m "live_heap_mb" "MB" (mb first.live_words);
      m "alloc_mwords" "Mwords" (median (List.map (fun p -> p.p_words /. 1e6) passes));
      m "decision_pct" "%" first.decision;
      m "condition_pct" "%" first.condition;
      m "mcdc_pct" "%" first.mcdc;
      m "testcases" "count" (float first.testcases);
    ]

(* ------------------------------------------------------------------ *)
(* Per-layer ledger: replay of the traced pass's calls                 *)

(* Replay tallies, summed over the jobs of a pass. *)
type ledger = {
  mutable edges : int;  (** (state, input) steps replayed *)
  mutable step_s : float;
  mutable step_words : float;
  mutable observe_s : float;  (** the same steps, feeding a tracker *)
  mutable observe_words : float;
  mutable diff_s : float;
  mutable inserts : int;  (** tree nodes re-inserted *)
  mutable insert_s : float;
  mutable insert_words : float;
  mutable dedup_s : float;  (** re-inserting a present child *)
  mutable tree_nodes : int;
  mutable solves : int;
  mutable solve_s : float;
  mutable solve_words : float;
  mutable env_s : float;
  mutable env_words : float;
  mutable sat : int;
  mutable unknown : int;
  mutable solve_mismatches : int;
  mutable other_mismatches : int;  (** tree ids, fuzz verdicts *)
  mutable gen_s : float;
  mutable oracle_s : (string * float) list;
  mutable cases : int;
  mutable interval_s : float;
  mutable interval_words : float;
  mutable octagon_s : float;
  mutable octagon_words : float;
  mutable analyses : int;
  mutable objectives : int;
  mutable decided : int;
  mutable octagon_extra : int;
}

let new_ledger () =
  {
    edges = 0;
    step_s = 0.0;
    step_words = 0.0;
    observe_s = 0.0;
    observe_words = 0.0;
    diff_s = 0.0;
    inserts = 0;
    insert_s = 0.0;
    insert_words = 0.0;
    dedup_s = 0.0;
    tree_nodes = 0;
    solves = 0;
    solve_s = 0.0;
    solve_words = 0.0;
    env_s = 0.0;
    env_words = 0.0;
    sat = 0;
    unknown = 0;
    solve_mismatches = 0;
    other_mismatches = 0;
    gen_s = 0.0;
    oracle_s = List.map (fun o -> (o, 0.0)) Fuzzer.Oracle.all;
    cases = 0;
    interval_s = 0.0;
    interval_words = 0.0;
    octagon_s = 0.0;
    octagon_words = 0.0;
    analyses = 0;
    objectives = 0;
    decided = 0;
    octagon_extra = 0;
  }

(* Exec and tracker: the same steps three ways — bare, feeding a
   tracker, and the engine's per-step covered-set difference. *)
let replay_steps lg prog (edges : (Exec.state * Exec.inputs) array) =
  let ex = Exec.handle prog in
  (* short sequences (fuzz cases) repeat, so each timed loop is long
     enough to time *)
  let reps = max 1 (1000 / max 1 (Array.length edges)) in
  let n = reps * Array.length edges in
  let step on_event () =
    for _ = 1 to reps do
      Array.iter (fun (s, i) -> ignore (Exec.run_step ?on_event ex s i)) edges
    done
  in
  let tr = Tracker.create prog in
  let (), s1, w1 = measure (step None) in
  let (), o1, ow1 = measure (step (Some (Tracker.observe tr))) in
  let (), s2, w2 = measure (step None) in
  let (), o2, ow2 = measure (step (Some (Tracker.observe tr))) in
  let (), d, _ =
    measure (fun () ->
        for _ = 1 to n do
          let before = Tracker.covered_branches tr in
          let after = Tracker.covered_branches tr in
          ignore (Branch.Key_set.diff after before)
        done)
  in
  lg.edges <- lg.edges + (2 * n);
  lg.step_s <- lg.step_s +. s1 +. s2;
  lg.step_words <- lg.step_words +. w1 +. w2;
  lg.observe_s <- lg.observe_s +. o1 +. o2;
  lg.observe_words <- lg.observe_words +. ow1 +. ow2;
  lg.diff_s <- lg.diff_s +. (2.0 *. d)

(* Each input sequence's steps, chained from the initial state, up to
   the first step that raises. *)
let chain_edges prog (seqs : Exec.inputs list list) =
  let ex = Exec.handle prog in
  let acc = ref [] in
  let rec chain s = function
    | [] -> ()
    | i :: rest -> (
      match Exec.run_step ex s i with
      | _, s' ->
        acc := (s, i) :: !acc;
        chain s' rest
      | exception (Exec.Eval_error _ | Slim.Value.Type_error _) -> ())
  in
  List.iter (chain (Exec.initial_state ex)) seqs;
  Array.of_list (List.rev !acc)

let classify = function
  | Explore.Sat _ -> `Sat
  | Explore.Unsat -> `Unsat
  | Explore.Unknown -> `Unknown

let count_result lg = function
  | `Sat -> lg.sat <- lg.sat + 1
  | `Unknown -> lg.unknown <- lg.unknown + 1
  | `Unsat -> ()

(* Re-issue every recorded [Ev_solve] through [Explore.solve_target]
   with the engine's solver configuration; each must reproduce its
   recorded result.  The env build is timed separately over the same
   calls. *)
let replay_engine_solves lg prog (r : Engine.run) =
  let cfg = r.Engine.r_config in
  let solver_cfg = { cfg.Engine.solver with Explore.rng_seed = cfg.Engine.seed } in
  let queries =
    List.filter_map
      (function
        | Engine.Ev_solve { target; node; result; _ } ->
          Some ((State_tree.node r.Engine.r_tree node).State_tree.state, target, result)
        | Engine.Ev_testcase _ | Engine.Ev_random_exec _ | Engine.Ev_coverage _ ->
          None)
      r.Engine.r_events
  in
  Gc.compact ();
  let (), dt, w =
    measure (fun () ->
        List.iter
          (fun (state, target, result) ->
            let outcome, _ =
              Explore.solve_target ~config:solver_cfg
                ~symbolic_state:(not cfg.Engine.state_aware) prog ~state ~target
            in
            let got = classify outcome in
            count_result lg got;
            if got <> result then lg.solve_mismatches <- lg.solve_mismatches + 1)
          queries)
  in
  let (), env_dt, env_w =
    measure (fun () ->
        List.iter
          (fun (state, _, _) ->
            ignore
              (Symexec.Sym_value.env_of_program
                 ~symbolic_state:(not cfg.Engine.state_aware) prog ~state
                 ~input_var:(fun name _ -> Solver.Term.var name)))
          queries)
  in
  lg.solves <- lg.solves + List.length queries;
  lg.solve_s <- lg.solve_s +. dt;
  lg.solve_words <- lg.solve_words +. w;
  lg.env_s <- lg.env_s +. env_dt;
  lg.env_words <- lg.env_words +. env_w

(* Rebuild the state tree node by node in insertion order: each insert
   must create the node with its recorded id.  Then re-insert every
   node under its parent again, which takes the reuse path. *)
let replay_tree lg prog (r : Engine.run) =
  let tree = r.Engine.r_tree in
  let nodes =
    List.filter_map
      (fun (n : State_tree.node) ->
        match n.State_tree.parent, n.State_tree.input with
        | Some p, Some input -> Some (n, p, input)
        | _ -> None)
      (State_tree.nodes tree)
  in
  let fresh = State_tree.create prog in
  let map = Array.make (State_tree.size tree) (State_tree.root fresh) in
  let mismatches = ref 0 in
  let (), dt, w =
    measure (fun () ->
        List.iter
          (fun ((n : State_tree.node), p, input) ->
            let child, is_new =
              State_tree.add_child fresh ~parent:map.(p) ~input n.State_tree.state
            in
            if (not is_new) || child.State_tree.id <> n.State_tree.id then incr mismatches;
            map.(n.State_tree.id) <- child)
          nodes)
  in
  let (), dup, _ =
    measure (fun () ->
        List.iter
          (fun ((n : State_tree.node), p, input) ->
            let _, is_new =
              State_tree.add_child fresh ~parent:map.(p) ~input n.State_tree.state
            in
            if is_new then incr mismatches)
          nodes)
  in
  lg.inserts <- lg.inserts + List.length nodes;
  lg.insert_s <- lg.insert_s +. dt;
  lg.insert_words <- lg.insert_words +. w;
  lg.dedup_s <- lg.dedup_s +. dup;
  lg.tree_nodes <- lg.tree_nodes + State_tree.size tree;
  lg.other_mismatches <- lg.other_mismatches + !mismatches;
  Array.of_list
    (List.map
       (fun ((_ : State_tree.node), p, input) ->
         ((State_tree.node tree p).State_tree.state, input))
       nodes)

let replay_job lg (jr : job_result) =
  Option.iter
    (fun r ->
      replay_engine_solves lg jr.jr_prog r;
      replay_steps lg jr.jr_prog (replay_tree lg jr.jr_prog r))
    jr.jr_run

(* Fuzz: per case, the generator, each oracle, both analyzer domains
   and the case's input rows through exec and the tracker.  Each
   replayed oracle verdict must equal the campaign's. *)
let replay_fuzz lg ~max_steps cases verdicts =
  List.iter2
    (fun fc recorded ->
      let (), g, _ =
        measure (fun () ->
            let model, _, gen_inputs =
              Fuzzer.Campaign.case_gen ~seed:fuzz_campaign_seed ~max_steps fc.fc_index
            in
            ignore (gen_inputs (Fuzzer.Gen.program_of model)))
      in
      lg.gen_s <- lg.gen_s +. g;
      lg.cases <- lg.cases + 1;
      lg.oracle_s <-
        List.map
          (fun (o, acc) ->
            let v, dt, _ =
              measure (fun () ->
                  Fuzzer.Oracle.run ~which:[ o ] ~seed:fc.fc_seed fc.fc_prog
                    fc.fc_inputs)
            in
            if v <> List.filter (fun (n, _) -> n = o) recorded then
              lg.other_mismatches <- lg.other_mismatches + 1;
            (o, acc +. dt))
          lg.oracle_s;
      let analyze domain =
        measure (fun () ->
            Analysis.Verdict.of_result
              (Analysis.Analyzer.analyze ~config:{ Analysis.Analyzer.domain } fc.fc_prog))
      in
      let decided (s : Analysis.Verdict.summary) =
        List.map
          (fun (_, v) -> v <> Analysis.Verdict.Unknown)
          s.Analysis.Verdict.v_branches
      in
      let iv, it, iw = analyze `Interval in
      let ov, ot, ow = analyze `Octagon in
      let di = decided iv and d_o = decided ov in
      lg.analyses <- lg.analyses + 1;
      lg.interval_s <- lg.interval_s +. it;
      lg.interval_words <- lg.interval_words +. iw;
      lg.octagon_s <- lg.octagon_s +. ot;
      lg.octagon_words <- lg.octagon_words +. ow;
      lg.objectives <- lg.objectives + List.length di;
      lg.decided <- lg.decided + List.length (List.filter Fun.id di);
      lg.octagon_extra <-
        lg.octagon_extra
        + List.length (List.filter Fun.id (List.map2 (fun a b -> b && not a) di d_o));
      let ex = Exec.handle fc.fc_prog in
      let rows = List.map (Exec.inputs_of_list ex) fc.fc_inputs in
      replay_steps lg fc.fc_prog (chain_edges fc.fc_prog [ rows ]))
    cases verdicts

let counter snapshot name =
  float (Option.value ~default:0 (List.assoc_opt name snapshot.Telemetry.sn_counters))

let ledger_metrics lg ~counters ~rates ~engine_s ~traced_s ~untraced_s =
  let c = counter counters in
  let ns s n = ratio s (float n) *. 1e9 in
  let per w n = ratio w (float n) in
  let steps = c "engine.steps" in
  let attempts = c "engine.solve_attempts" in
  let new_nodes = float (lg.inserts) in
  let step_ns = ns lg.step_s lg.edges in
  let observe_ns = ns (lg.observe_s -. lg.step_s) lg.edges in
  let diff_ns = ns lg.diff_s lg.edges in
  let insert_ns = ns lg.insert_s lg.inserts in
  let dedup_ns = ns lg.dedup_s lg.inserts in
  (* engine time not accounted for by the replayed layers; the tree
     term assumes every non-growing step took the reuse path *)
  let residual =
    if engine_s = 0.0 then 0.0
    else
      engine_s
      -. (steps *. (step_ns +. observe_ns +. diff_ns) *. 1e-9)
      -. (new_nodes *. insert_ns *. 1e-9)
      -. (Float.max 0.0 (steps -. new_nodes) *. dedup_ns *. 1e-9)
      -. lg.solve_s
  in
  let oracle o = ratio (List.assoc o lg.oracle_s) (float lg.cases) *. 1e3 in
  [
    m "exec.step_ns" "ns" step_ns;
    m "exec.steps" "count" (c "exec.steps");
    m "exec.alloc_words" "words" (per lg.step_words lg.edges);
    m "tracker.observe_ns" "ns" observe_ns;
    m "tracker.diff_ns" "ns" diff_ns;
    m "tracker.alloc_words" "words" (per (lg.observe_words -. lg.step_words) lg.edges);
    m "state_tree.insert_ns" "ns" insert_ns;
    m "state_tree.dedup_ns" "ns" dedup_ns;
    m "state_tree.nodes" "count" (float lg.tree_nodes);
    m "state_tree.new_share" "ratio" (ratio new_nodes steps);
    m "state_tree.alloc_words" "words" (per lg.insert_words lg.inserts);
    m "symexec.env_s" "s" lg.env_s;
    m "symexec.env_share" "ratio" (ratio lg.env_s lg.solve_s);
    m "symexec.env_alloc_words" "words" (per lg.env_words lg.solves);
    m "symexec.solve_s" "s" lg.solve_s;
    m "symexec.solve_us" "us" (ratio lg.solve_s (float lg.solves) *. 1e6);
    m "symexec.walk_s" "s" (lg.solve_s -. lg.env_s);
    m "symexec.sat_share" "ratio" (ratio (float lg.sat) (float lg.solves));
    m "symexec.unknown_share" "ratio" (ratio (float lg.unknown) (float lg.solves));
    m "symexec.paths" "count" (c "symexec.paths");
    m "symexec.prunes" "count" (c "symexec.prunes");
    m "symexec.alloc_words" "words" (per lg.solve_words lg.solves);
    m "symexec.replayed" "count" (float lg.solves);
    m "symexec.replay_mismatches" "count" (float lg.solve_mismatches);
    m "solver.solve_calls" "count" (c "solver.solve_calls");
    m "solver.nodes" "count" (c "solver.nodes");
    m "solver.hc4_rounds" "count" (c "solver.hc4_rounds");
    m "term.hashcons_dedup_ratio" "ratio"
      (Option.value ~default:0.0 (List.assoc_opt "term.hashcons_dedup_ratio" rates));
    m "engine.run_s" "s" engine_s;
    m "engine.residual_s" "s" residual;
    m "engine.steps" "count" steps;
    m "engine.solve_attempts" "count" attempts;
    m "engine.cache_hits_per_attempt" "ratio" (ratio (c "engine.solve_cache_hits") attempts);
    m "engine.stride_skips" "count" (c "engine.stride_skips");
    m "analysis.interval_ms" "ms" (ratio lg.interval_s (float lg.analyses) *. 1e3);
    m "analysis.octagon_ms" "ms" (ratio lg.octagon_s (float lg.analyses) *. 1e3);
    m "analysis.interval_alloc_words" "words" (per lg.interval_words lg.analyses);
    m "analysis.octagon_alloc_words" "words" (per lg.octagon_words lg.analyses);
    m "analysis.decided_share" "ratio" (ratio (float lg.decided) (float lg.objectives));
    m "analysis.octagon_extra_decided" "count" (float lg.octagon_extra);
    m "fuzz.gen_ms" "ms" (ratio lg.gen_s (float lg.cases) *. 1e3);
  ]
  @ List.map
      (fun o -> m (Printf.sprintf "fuzz.oracle.%s_ms" o) "ms" (oracle o))
      Fuzzer.Oracle.all
  @ [
      m "spec.robustness_evals" "count" (c "spec.robustness_evals");
      m "replay.mismatches" "count" (float (lg.solve_mismatches + lg.other_mismatches));
      m "trace.untraced_s" "s" untraced_s;
      m "trace.traced_s" "s" traced_s;
      m "trace.overhead_share" "ratio" (ratio traced_s untraced_s -. 1.0);
    ]

(* One traced round: an untraced pass (the overhead reference), a
   traced pass, and the replay of the traced pass's calls.  Both passes
   compact the heap between ops (see [timed_ops]), so they differ only
   in telemetry. *)
let traced_round wl prepared =
  Gc.compact ();
  let untraced = run_pass wl prepared in
  let lg = new_ledger () in
  (* each job is replayed as soon as it ends, with telemetry paused, so
     only one engine run is held at a time *)
  let replay jr =
    Telemetry.disable ();
    replay_job lg jr;
    Telemetry.enable ()
  in
  Telemetry.reset ();
  Telemetry.enable ();
  Gc.compact ();
  let traced = run_pass wl ~after:replay prepared in
  Telemetry.disable ();
  let counters = Telemetry.snapshot ~nondet:true () in
  let rates = Telemetry.derived_rates () in
  (match wl, prepared with
   | Fuzz { max_steps; _ }, Cases cases ->
     replay_fuzz lg ~max_steps cases traced.p_verdicts
   | Jobs _, _ | Fuzz _, Progs _ -> ());
  let engine_s = match wl with Jobs _ -> traced.p_wall | Fuzz _ -> 0.0 in
  let metrics =
    ledger_metrics lg ~counters ~rates ~engine_s ~traced_s:traced.p_wall
      ~untraced_s:untraced.p_wall
  in
  (untraced, traced, lg, metrics)

let run_traced ~name wl ~seconds =
  let prepared = setup wl in
  Telemetry.set_span_retention `Aggregate;
  let t0 = now_s () in
  let rec loop rounds =
    let ((_, traced, _, _) as r) = traced_round wl prepared in
    Printf.eprintf "%s: traced round %d  %.3f s\n%!" name (List.length rounds + 1)
      traced.p_wall;
    let rounds = r :: rounds in
    let round_s = (now_s () -. t0) /. float (List.length rounds) in
    if now_s () -. t0 +. round_s <= float seconds then loop rounds
    else List.rev rounds
  in
  let rounds = loop [] in
  let first_untraced, _, _, _ = List.hd rounds in
  let failed =
    List.fold_left
      (fun n (u, t, lg, _) ->
        n + u.p_summary.failed + t.p_summary.failed
        + drift first_untraced.p_summary u.p_summary
        + drift first_untraced.p_summary t.p_summary
        + lg.solve_mismatches + lg.other_mismatches)
      0 rounds
  in
  let attempted =
    List.fold_left
      (fun n (u, t, _, _) -> n + u.p_summary.ops + t.p_summary.ops)
      0 rounds
  in
  (* median over rounds; counts repeat exactly, so only timings move *)
  let _, _, _, first = List.hd rounds in
  let metrics =
    List.mapi
      (fun i x ->
        {
          x with
          m_value = median (List.map (fun (_, _, _, ms) -> (List.nth ms i).m_value) rounds);
        })
      first
  in
  Printf.printf "workload %s (traced): %d rounds\n" name (List.length rounds);
  print_result ~correct:(failed = 0) ~attempted ~failed metrics

(* ------------------------------------------------------------------ *)

let () =
  let name = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string name, "NAME one of " ^ String.concat ", " workload_names);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measurement window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics or per-layer ledger");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match workload !name ~seed:!seed with
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" !name
      (String.concat ", " workload_names);
    exit 2
  | Some wl ->
    if !trace = 0 then run_end_to_end ~name:!name wl ~seconds:!seconds
    else run_traced ~name:!name wl ~seconds:!seconds
