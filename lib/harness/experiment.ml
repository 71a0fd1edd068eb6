module Registry = Models.Registry
module Run_result = Stcg.Run_result
module Engine = Stcg.Engine
module Tracker = Coverage.Tracker
module Testcase = Stcg.Testcase

type tool = STCG | STCG_hybrid | SLDV | SimCoTest

let tool_name = function
  | STCG -> "STCG"
  | STCG_hybrid -> "STCG-hybrid"
  | SLDV -> "SLDV"
  | SimCoTest -> "SimCoTest"

let run_tool ?(budget = 3600.0) ?(analyze = false)
    ?(domain = `Interval) ?(verdict_priority = false) ~seed tool (entry : Registry.entry) =
  let prog = entry.Registry.program () in
  let analysis_config = { Analysis.Analyzer.domain } in
  match tool with
  | STCG ->
    let config =
      { Engine.default_config with
        Engine.seed; budget; analyze; analysis_config; verdict_priority }
    in
    Run_result.of_engine_run ~model:entry.Registry.name
      (Engine.run ~config prog)
  | STCG_hybrid ->
    let config =
      { Engine.default_config with
        Engine.seed; budget; random_first = true; analyze; analysis_config;
        verdict_priority }
    in
    let result =
      Run_result.of_engine_run ~model:entry.Registry.name
        (Engine.run ~config prog)
    in
    { result with Run_result.tool = "STCG-hybrid" }
  | SLDV ->
    let config = { Baselines.Sldv.default_config with Baselines.Sldv.budget } in
    Baselines.Sldv.run ~config ~model:entry.Registry.name prog
  | SimCoTest ->
    let config =
      { Baselines.Simcotest.default_config with
        Baselines.Simcotest.budget; seed }
    in
    Baselines.Simcotest.run ~config ~model:entry.Registry.name prog

type averaged = {
  a_model : string;
  a_tool : tool;
  a_decision : float;
  a_condition : float;
  a_mcdc : float;
  a_tests : float;
  a_runs : int;
}

(* --- the parallel job matrix ------------------------------------------- *)

(* Every experiment below is an average of independent (tool, model,
   seed) runs; each run builds its own tracker, state tree and RNG, so
   the whole matrix is embarrassingly parallel.  Experiments enumerate
   their jobs up front, execute them on {!Pool}, and merge by job index
   — the result lists come back in enumeration order, so every derived
   table and CSV is byte-identical to the sequential run no matter how
   the scheduler interleaved the workers ([jobs = 1] literally runs the
   sequential [List.map] path). *)

(* SLDV is deterministic: one run regardless of the seed list. *)
let seeds_for tool seeds = match tool with SLDV -> [ 1 ] | _ -> seeds

(* Deterministic relative cost of one job, for the pool's
   longest-expected-first scheduling: branch count is the best static
   proxy for how much exploring/solving a run does, and the STCG
   variants do roughly an order of magnitude more solver work per
   branch than the random baselines.  Only scheduling reads these —
   results and merge order never depend on them. *)
let tool_cost_weight = function
  | STCG | STCG_hybrid -> 8
  | SimCoTest -> 3
  | SLDV -> 1

let entry_cost (e : Registry.entry) =
  1 + Slim.Exec.n_branches (Slim.Exec.handle (e.Registry.program ()))

(* The registry entries a [?models] list names, all of them by default;
   an unknown name raises rather than leaving its rows out silently. *)
let entries_of = function
  | None -> Registry.entries
  | Some names ->
    List.map
      (fun name ->
        match Registry.find name with
        | Some e -> e
        | None ->
          invalid_arg
            (Fmt.str "unknown model %s; known models: %s" name
               (String.concat ", " Registry.names)))
      names

(* Execute a job matrix over [entries] and return its results in matrix
   order.  The per-model lazy construction and slot compilation are
   forced once on the submitting domain first, so workers share the
   precomputed handles read-only instead of racing on the model lazies.
   The matrix runs on the caller's pool when given one, otherwise on a
   private pool of [?jobs] workers. *)
let run_matrix ?pool ?jobs ?cost entries matrix f =
  List.iter
    (fun (e : Registry.entry) ->
      ignore (Slim.Exec.handle (e.Registry.program ())))
    entries;
  match pool with
  | Some p -> Pool.map p ?cost f matrix
  | None -> Pool.with_pool ?jobs (fun p -> Pool.map p ?cost f matrix)

(* The outcome of one (model, tool, seed) run that the averages read. *)
type t3_cell = {
  t3_decision : float;
  t3_condition : float;
  t3_mcdc : float;
  t3_tests : int;
}

let t3_cell_of_run (r : Run_result.t) =
  {
    t3_decision = Run_result.decision_pct r;
    t3_condition = Run_result.condition_pct r;
    t3_mcdc = Run_result.mcdc_pct r;
    t3_tests = List.length r.Run_result.testcases;
  }

let average_of_cells ~tool (entry : Registry.entry) cells =
  let n = float (List.length cells) in
  let mean f = List.fold_left (fun acc c -> acc +. f c) 0.0 cells /. n in
  {
    a_model = entry.Registry.name;
    a_tool = tool;
    a_decision = mean (fun c -> c.t3_decision);
    a_condition = mean (fun c -> c.t3_condition);
    a_mcdc = mean (fun c -> c.t3_mcdc);
    a_tests = mean (fun c -> float c.t3_tests);
    a_runs = List.length cells;
  }

let average ?budget ?pool ?jobs ~seeds tool entry =
  run_matrix ?pool ?jobs [ entry ] (seeds_for tool seeds) (fun seed ->
      t3_cell_of_run (run_tool ?budget ~seed tool entry))
  |> average_of_cells ~tool entry

(* --- Table I ---------------------------------------------------------- *)

let table1 ?(budget = 3600.0) ?(seed = 1) () =
  let entry = Option.get (Registry.find "CPUTask") in
  let prog = entry.Registry.program () in
  let config = { Engine.default_config with Engine.seed; budget } in
  let run = Engine.run ~config prog in
  let total = (Tracker.decision run.Engine.r_tracker).Tracker.total in
  (* Rebuild the construction narrative from the event log: each solve
     event is one "step"; successful steps name the branch target, the
     state node and the branches achieved by the execution right after. *)
  let covered_so_far = ref 0 in
  let step = ref 0 in
  let rows = ref [] in
  let pending : (string * string) option ref = ref None in
  List.iter
    (fun ev ->
      match ev with
      | Engine.Ev_solve { target; node; result; _ } ->
        (match result with
         | `Sat ->
           incr step;
           pending :=
             Some (Fmt.str "%a" Symexec.Explore.pp_target target,
                   Fmt.str "S%d" node)
         | `Unsat | `Unknown -> ())
      | Engine.Ev_random_exec { node; len; _ } ->
        incr step;
        pending := Some (Fmt.str "random x%d" len, Fmt.str "S%d" node)
      | Engine.Ev_coverage { decision_covered; _ } ->
        (match !pending with
         | Some (target, state) when decision_covered > !covered_so_far ->
           let gained = decision_covered - !covered_so_far in
           covered_so_far := decision_covered;
           rows :=
             [
               string_of_int !step;
               target;
               state;
               Fmt.str "+%d" gained;
               Fmt.str "%d/%d" decision_covered total;
             ]
             :: !rows;
           pending := None
         | _ -> ())
      | Engine.Ev_testcase _ -> ())
    run.Engine.r_events;
  let table =
    Telemetry.Text_table.render
      ~header:
        [ "Step"; "Target"; "Target state"; "New branches"; "Total achieved" ]
      (List.rev !rows)
  in
  Fmt.str
    "Table I - state-tree construction on CPUTask (seed %d)\n%s\nstates explored: %d, test cases: %d, final: %a\n"
    seed table
    (Stcg.State_tree.size run.Engine.r_tree)
    (List.length run.Engine.r_testcases)
    Tracker.pp_summary run.Engine.r_tracker

(* --- Table II --------------------------------------------------------- *)

let table2 () =
  let rows =
    List.map
      (fun (e : Registry.entry) ->
        let prog = e.Registry.program () in
        [
          e.Registry.name;
          e.Registry.description;
          string_of_int (Slim.Exec.n_branches (Slim.Exec.handle prog));
          string_of_int e.Registry.paper_branches;
          string_of_int (Slim.Ir.stmt_count prog);
          string_of_int e.Registry.paper_blocks;
        ])
      Registry.entries
  in
  Fmt.str "Table II - benchmark models (ours vs paper)\n%s"
    (Telemetry.Text_table.render
       ~header:
         [
           "Model"; "Functionality"; "#Branch"; "paper"; "#Stmt"; "paper #Block";
         ]
       rows)

(* --- Table III -------------------------------------------------------- *)

let pct_str x = Fmt.str "%.0f%%" x

let table3 ?budget ?(seeds = [ 1; 2; 3; 4; 5 ]) ?models ?pool ?jobs () =
  let entries = entries_of models in
  let tools = [ SLDV; SimCoTest; STCG ] in
  (* the full (model, tool, seed) matrix, in canonical row order *)
  let matrix =
    List.concat_map
      (fun entry ->
        List.concat_map
          (fun tool ->
            List.map (fun seed -> (entry, tool, seed)) (seeds_for tool seeds))
          tools)
      entries
  in
  let cells =
    run_matrix ?pool ?jobs entries matrix
      ~cost:(fun (e, t, _) -> tool_cost_weight t * entry_cost e)
      (fun (entry, tool, seed) ->
        t3_cell_of_run (run_tool ?budget ~seed tool entry))
  in
  (* deterministic merge: cells are in matrix order, so grouping by
     (model, tool) consumes each cell's seeds in seed order *)
  let tagged = List.combine matrix cells in
  let rows =
    List.concat_map
      (fun (entry : Registry.entry) ->
        List.map
          (fun tool ->
            let cell =
              List.filter_map
                (fun (((e : Registry.entry), t, _), r) ->
                  if e.Registry.name = entry.Registry.name && t = tool then
                    Some r
                  else None)
                tagged
            in
            average_of_cells ~tool entry cell)
          tools)
      entries
  in
  let paper_of tool (e : Registry.entry) =
    match tool with
    | SLDV -> e.Registry.paper.Registry.p_sldv
    | SimCoTest -> e.Registry.paper.Registry.p_simcotest
    | STCG | STCG_hybrid -> e.Registry.paper.Registry.p_stcg
  in
  let text_rows =
    List.concat_map
      (fun (e : Registry.entry) ->
        List.map
          (fun tool ->
            let a =
              List.find
                (fun r -> r.a_model = e.Registry.name && r.a_tool = tool)
                rows
            in
            let pd, pc, pm = paper_of tool e in
            [
              e.Registry.name;
              tool_name tool;
              pct_str a.a_decision;
              pct_str pd;
              pct_str a.a_condition;
              pct_str pc;
              pct_str a.a_mcdc;
              pct_str pm;
            ])
          tools)
      entries
  in
  (* average improvements of STCG over the baselines, paper-style *)
  let improvement base =
    let ratios metric =
      List.filter_map
        (fun (e : Registry.entry) ->
          let get tool =
            List.find
              (fun r -> r.a_model = e.Registry.name && r.a_tool = tool)
              rows
          in
          let b = metric (get base) and s = metric (get STCG) in
          if b > 0.0 then Some (100.0 *. (s -. b) /. b) else None)
        entries
    in
    let mean l =
      if l = [] then 0.0 else List.fold_left ( +. ) 0.0 l /. float (List.length l)
    in
    ( mean (ratios (fun r -> r.a_decision)),
      mean (ratios (fun r -> r.a_condition)),
      mean (ratios (fun r -> r.a_mcdc)) )
  in
  let d_sldv, c_sldv, m_sldv = improvement SLDV in
  let d_sct, c_sct, m_sct = improvement SimCoTest in
  let table =
    Telemetry.Text_table.render
      ~header:
        [
          "Model"; "Tool"; "Decision"; "paper"; "Condition"; "paper"; "MCDC";
          "paper";
        ]
      (text_rows
      @ [
          [
            "Average"; "STCG vs SLDV"; Fmt.str "+%.0f%%" d_sldv; "+58%";
            Fmt.str "+%.0f%%" c_sldv; "+52%"; Fmt.str "+%.0f%%" m_sldv; "+239%";
          ];
          [
            "improvement"; "STCG vs SimCoTest"; Fmt.str "+%.0f%%" d_sct;
            "+132%"; Fmt.str "+%.0f%%" c_sct; "+70%"; Fmt.str "+%.0f%%" m_sct;
            "+237%";
          ];
        ])
  in
  ( rows,
    Fmt.str
      "Table III - coverage comparison (avg over %d seeds, %s virtual budget)\n%s"
      (List.length seeds)
      (match budget with Some b -> Fmt.str "%.0fs" b | None -> "3600s")
      table )

(* --- Figure 3 --------------------------------------------------------- *)

let fig3 () =
  let entry = Option.get (Registry.find "CPUTask") in
  let prog = entry.Registry.program () in
  let branches = Slim.Exec.branches (Slim.Exec.handle prog) in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "Figure 3(a) - CPUTask branch structure (first two levels)\n";
  List.iter
    (fun (b : Slim.Branch.t) ->
      if b.depth <= 1 then
        Buffer.add_string buf
          (Fmt.str "%s%a\n"
             (String.make (2 * b.depth) ' ')
             Slim.Branch.pp b))
    branches;
  (* a small exploration to draw an actual state tree *)
  let config =
    { Engine.default_config with Engine.seed = 1; budget = 120.0 }
  in
  let run = Engine.run ~config prog in
  Buffer.add_string buf "\nFigure 3(b) - explored state tree (excerpt)\n";
  let tree_text = Fmt.str "%a" Stcg.State_tree.pp run.Engine.r_tree in
  let lines = String.split_on_char '\n' tree_text in
  let rec take k = function
    | [] -> []
    | x :: rest -> if k = 0 then [ "  ..." ] else x :: take (k - 1) rest
  in
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    (take 25 lines);
  Buffer.contents buf

(* --- Figure 4 --------------------------------------------------------- *)

let f4_tools = [ STCG; SLDV; SimCoTest ]

(* What a Figure 4 panel keeps of one (model, tool) run. *)
type f4_curve = {
  f4_tool : string;  (* the tool's self-reported name, for the CSV dump *)
  f4_timeline : (float * float) list;
  f4_markers : (float * Testcase.origin) list;
}

let csv_of_curve (c : f4_curve) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "tool,time_s,decision_pct\n";
  List.iter
    (fun (t, p) ->
      Buffer.add_string buf (Fmt.str "%s,%.1f,%.2f\n" c.f4_tool t p))
    c.f4_timeline;
  Buffer.contents buf

let fig4 ?(budget = 3600.0) ?(seed = 1) ?models ?pool ?jobs () =
  let entries = entries_of models in
  let matrix =
    List.concat_map
      (fun entry -> List.map (fun tool -> (entry, tool)) f4_tools)
      entries
  in
  let curves =
    run_matrix ?pool ?jobs entries matrix
      ~cost:(fun (e, t) -> tool_cost_weight t * entry_cost e)
      (fun (entry, tool) ->
        let r = run_tool ~budget ~seed tool entry in
        {
          f4_tool = r.Run_result.tool;
          f4_timeline = r.Run_result.timeline;
          f4_markers = r.Run_result.markers;
        })
  in
  let curve_of (entry : Registry.entry) tool =
    let rec find = function
      | [] -> assert false
      | (((e : Registry.entry), t), r) :: rest ->
        if e.Registry.name = entry.Registry.name && t = tool then r
        else find rest
    in
    find (List.combine matrix curves)
  in
  let panels = Buffer.create 4096 in
  let csvs = ref [] in
  List.iter
    (fun (entry : Registry.entry) ->
      let stcg = curve_of entry STCG in
      let sldv = curve_of entry SLDV in
      let sct = curve_of entry SimCoTest in
      let markers_of (c : f4_curve) =
        List.map
          (fun (t, origin) ->
            ( t,
              match origin with
              | Testcase.Solved -> '^'  (* paper's triangle *)
              | Testcase.Random_exec -> 'o' (* paper's diamond *) ))
          c.f4_markers
      in
      let series =
        [
          {
            Ascii_plot.s_label = "STCG (^ solved, o random)";
            s_glyph = '*';
            s_points = stcg.f4_timeline;
            s_markers = markers_of stcg;
          };
          {
            Ascii_plot.s_label = "SLDV";
            s_glyph = '#';
            s_points = sldv.f4_timeline;
            s_markers = [];
          };
          {
            Ascii_plot.s_label = "SimCoTest";
            s_glyph = '.';
            s_points = sct.f4_timeline;
            s_markers = [];
          };
        ]
      in
      Buffer.add_string panels
        (Fmt.str "\n--- %s : decision coverage vs time ---\n"
           entry.Registry.name);
      Buffer.add_string panels (Ascii_plot.render ~x_max:budget series);
      let csv = csv_of_curve stcg ^ csv_of_curve sldv ^ csv_of_curve sct in
      csvs := (entry.Registry.name, csv) :: !csvs)
    entries;
  (Buffer.contents panels, List.rev !csvs)

(* --- Ablations --------------------------------------------------------- *)

let ab_variants : (string * (Engine.config -> Engine.config)) list =
  [
    ("STCG (full)", fun c -> c);
    ("no depth sort", fun c -> { c with Engine.sort_branches = false });
    ( "state symbolic (not constant)",
      fun c -> { c with Engine.state_aware = false } );
    ( "no random fallback",
      fun c -> { c with Engine.random_fallback = false } );
    ("random-first hybrid", fun c -> { c with Engine.random_first = true });
  ]

let ab_default_models = [ "CPUTask"; "TCP" ]

(* one job per (model, variant, seed); both reported metrics, decision
   coverage and virtual time to full coverage, come from the same run *)
let ablations ?(budget = 3600.0) ?(seeds = [ 1; 2; 3 ]) ?models ?pool ?jobs
    () =
  let entries =
    entries_of (Some (Option.value models ~default:ab_default_models))
  in
  let matrix =
    List.concat_map
      (fun entry ->
        List.concat_map
          (fun variant -> List.map (fun seed -> (entry, variant, seed)) seeds)
          ab_variants)
      entries
  in
  let cells =
    run_matrix ?pool ?jobs entries matrix
      ~cost:(fun (e, _, _) -> tool_cost_weight STCG * entry_cost e)
      (fun (entry, (_, tweak), seed) ->
        let config =
          tweak { Engine.default_config with Engine.seed; budget }
        in
        let run = Engine.run ~config (entry.Registry.program ()) in
        let decision = Tracker.pct (Tracker.decision run.Engine.r_tracker) in
        let time_to_full =
          match run.Engine.r_stop with
          | Engine.Full_coverage -> Stcg.Vclock.now run.Engine.r_clock
          | Engine.Budget_exhausted -> budget
        in
        (decision, time_to_full))
  in
  let tagged = List.combine matrix cells in
  let rows =
    List.concat_map
      (fun (entry : Registry.entry) ->
        let mname = entry.Registry.name in
        List.map
          (fun (label, _tweak) ->
            let cell =
              List.filter_map
                (fun (((e : Registry.entry), (l, _), _), metric) ->
                  if e.Registry.name = mname && l = label then Some metric
                  else None)
                tagged
            in
            let mean f =
              List.fold_left (fun acc metric -> acc +. f metric) 0.0 cell
              /. float (List.length cell)
            in
            [
              mname;
              label;
              Fmt.str "%.1f%%" (mean fst);
              Fmt.str "%.0fs" (mean snd);
            ])
          ab_variants)
      entries
  in
  Fmt.str "Ablations (avg over %d seeds; time = virtual time to full coverage, budget %.0fs)\n%s"
    (List.length seeds) budget
    (Telemetry.Text_table.render
       ~header:[ "Model"; "Variant"; "Decision"; "Time-to-done" ]
       rows)
