(* Tests for the STCG engine: the Figure 2 loop, state tree, test-case
   synthesis and the export format. *)

module V = Slim.Value
module Ir = Slim.Ir
module Interp = Slim.Interp
module Branch = Slim.Branch
module Tracker = Coverage.Tracker
module Engine = Stcg.Engine
module Testcase = Stcg.Testcase
module State_tree = Stcg.State_tree

let check = Alcotest.check

let config ?(budget = 3600.0) ?(seed = 7) () =
  { Engine.default_config with Engine.budget; seed }

(* Accumulator model: the deep branch needs acc >= 2, reachable only by
   repeated ticks — classic state-dependent coverage. *)
let multi_prog =
  let open Ir in
  renumber_decisions
    {
      name = "multi";
      inputs = [ input "tick" V.Tbool ];
      outputs = [ output "deep" V.Tbool ];
      states = [ state "acc" (V.tint_range 0 10) (V.Int 0) ];
      locals = [];
      body =
        [
          assign_out "deep" (cb false);
          if_ (sv "acc" >=: ci 2) [ assign_out "deep" (cb true) ] [];
          if_ (iv "tick" &&: (sv "acc" <: ci 10))
            [ assign_state "acc" (sv "acc" +: ci 1) ]
            [];
        ];
    }

(* A miniature CPUTask: opcode dispatch over a 3-slot queue.  op=1 adds
   task [id]; op=2 deletes a matching task.  "add fails" requires a full
   queue (3 prior adds); "delete succeeds" requires a prior matching
   add - the paper's running example in miniature. *)
let mini_cputask =
  let open Ir in
  renumber_decisions
    {
      name = "mini_cputask";
      inputs =
        [ input "op" (V.tint_range 0 3); input "id" (V.tint_range 1 50) ];
      outputs = [ output "status" (V.tint_range 0 3) ];
      states =
        [
          state "queue" (V.Tvec (V.tint_range 0 50, 3))
            (V.Vec (Array.make 3 (V.Int 0)));
          state "count" (V.tint_range 0 3) (V.Int 0);
        ];
      locals = [ local "hit" V.Tbool; local "slot" (V.tint_range 0 2) ];
      body =
        [
          assign "hit" (cb false);
          assign "slot" (ci 0);
          switch (iv "op")
            [
              ( 1,
                [
                  if_ (sv "count" <: ci 3)
                    [
                      assign_state_idx "queue" (sv "count") (iv "id");
                      assign_state "count" (sv "count" +: ci 1);
                      assign_out "status" (ci 1);
                    ]
                    [ assign_out "status" (ci 2) (* add fails: full *) ];
                ] );
              ( 2,
                [
                  if_
                    (index (sv "queue") (ci 0) =: iv "id"
                    ||: (index (sv "queue") (ci 1) =: iv "id")
                    ||: (index (sv "queue") (ci 2) =: iv "id"))
                    [
                      (* delete: naive clear of first match *)
                      if_ (index (sv "queue") (ci 0) =: iv "id")
                        [ assign_state_idx "queue" (ci 0) (ci 0) ]
                        [
                          if_ (index (sv "queue") (ci 1) =: iv "id")
                            [ assign_state_idx "queue" (ci 1) (ci 0) ]
                            [ assign_state_idx "queue" (ci 2) (ci 0) ];
                        ];
                      assign_state "count" (Binop (Max, ci 0, sv "count" -: ci 1));
                      assign_out "status" (ci 1);
                    ]
                    [ assign_out "status" (ci 3) (* delete fails *) ];
                ] );
            ]
            [ assign_out "status" (ci 0) ];
        ];
    }

let test_full_coverage_multi () =
  let run = Engine.run ~config:(config ()) multi_prog in
  check Alcotest.bool "full decision coverage" true
    (Tracker.fully_covered run.Engine.r_tracker);
  check Alcotest.bool "stopped on coverage" true
    (run.Engine.r_stop = Engine.Full_coverage);
  check Alcotest.bool "produced test cases" true
    (List.length run.Engine.r_testcases > 0)

let test_full_coverage_mini_cputask () =
  let run = Engine.run ~config:(config ()) mini_cputask in
  check Alcotest.bool "full decision coverage" true
    (Tracker.fully_covered run.Engine.r_tracker)

let test_testcases_replay_to_same_coverage () =
  let run = Engine.run ~config:(config ()) mini_cputask in
  let replay = Testcase.replay_suite mini_cputask run.Engine.r_testcases in
  let live = (Tracker.decision run.Engine.r_tracker).Tracker.covered in
  let replayed = (Tracker.decision replay).Tracker.covered in
  (* every branch the engine covered was covered by some test case path *)
  check Alcotest.bool "replay covers all engine coverage" true
    (replayed >= live - 0);
  check Alcotest.int "exact match" live replayed

let test_deterministic () =
  let r1 = Engine.run ~config:(config ~seed:42 ()) mini_cputask in
  let r2 = Engine.run ~config:(config ~seed:42 ()) mini_cputask in
  check Alcotest.int "same number of test cases"
    (List.length r1.Engine.r_testcases)
    (List.length r2.Engine.r_testcases);
  check (Alcotest.float 1e-9) "same final virtual time"
    (Stcg.Vclock.now r1.Engine.r_clock)
    (Stcg.Vclock.now r2.Engine.r_clock)

let decision_pct run =
  Tracker.pct (Tracker.decision run.Engine.r_tracker)

let test_state_aware_ablation () =
  (* with the state symbolic instead of constant, the engine should do
     no better (and typically much worse) within the same budget *)
  let aware = Engine.run ~config:(config ~seed:3 ()) mini_cputask in
  let blind =
    Engine.run
      ~config:{ (config ~seed:3 ()) with Engine.state_aware = false }
      mini_cputask
  in
  check Alcotest.bool "state-aware >= state-blind" true
    (decision_pct aware >= decision_pct blind)

let test_hc4_memo_identity () =
  (* HC4 projection memoization is a pure cache: with the memo disabled
     through the solver-config escape hatch, the engine must emit a
     testcase-identical suite. *)
  let memo_off base =
    {
      base with
      Engine.solver = { base.Engine.solver with Symexec.Explore.hc4_memo = false };
    }
  in
  List.iter
    (fun prog ->
      let on = Engine.run ~config:(config ~seed:11 ()) prog in
      let off = Engine.run ~config:(memo_off (config ~seed:11 ())) prog in
      check Alcotest.int "same number of test cases"
        (List.length on.Engine.r_testcases)
        (List.length off.Engine.r_testcases);
      check (Alcotest.float 1e-9) "same final virtual time"
        (Stcg.Vclock.now on.Engine.r_clock)
        (Stcg.Vclock.now off.Engine.r_clock);
      List.iter2
        (fun (a : Testcase.t) (b : Testcase.t) ->
          check Alcotest.int "same length" (Testcase.length a)
            (Testcase.length b);
          check Alcotest.bool "same origin" true
            (a.Testcase.origin = b.Testcase.origin);
          List.iter2
            (fun sa sb ->
              check Alcotest.bool "same step inputs" true
                (Slim.Exec.values_equal sa sb))
            a.Testcase.steps b.Testcase.steps)
        on.Engine.r_testcases off.Engine.r_testcases)
    [ multi_prog; mini_cputask ]

let test_unsorted_branches_still_work () =
  let run =
    Engine.run
      ~config:{ (config ()) with Engine.sort_branches = false }
      multi_prog
  in
  check Alcotest.bool "coverage reached without depth sort" true
    (Tracker.fully_covered run.Engine.r_tracker)

let test_timeline_monotone () =
  let run = Engine.run ~config:(config ()) mini_cputask in
  let timeline = Engine.coverage_timeline run in
  check Alcotest.bool "non-empty timeline" true (List.length timeline > 0);
  let rec monotone = function
    | (t1, c1) :: ((t2, c2) :: _ as rest) ->
      t1 <= t2 && c1 <= c2 && monotone rest
    | _ -> true
  in
  check Alcotest.bool "time and coverage increase" true (monotone timeline)

let test_solved_marker_origins () =
  let run = Engine.run ~config:(config ()) mini_cputask in
  let solved =
    List.filter
      (fun (tc : Testcase.t) -> tc.Testcase.origin = Testcase.Solved)
      run.Engine.r_testcases
  in
  (* the bulk of coverage should come from state-aware solving *)
  check Alcotest.bool "some solved test cases" true (List.length solved > 0)

let test_budget_respected () =
  (* a tiny budget must terminate quickly with partial coverage *)
  let run = Engine.run ~config:(config ~budget:2.0 ()) mini_cputask in
  check Alcotest.bool "stopped on budget or coverage" true
    (run.Engine.r_stop = Engine.Budget_exhausted
    || run.Engine.r_stop = Engine.Full_coverage);
  check Alcotest.bool "clock within budget" true
    (Stcg.Vclock.now run.Engine.r_clock <= 2.0 +. 1e-9)

let test_vclock_budget_guard () =
  List.iter
    (fun budget ->
      Alcotest.check_raises
        (Fmt.str "budget %g refused" budget)
        (Invalid_argument "Vclock.create: budget must be finite and non-negative")
        (fun () -> ignore (Stcg.Vclock.create ~budget)))
    [ nan; infinity; neg_infinity; -1.0 ];
  check Alcotest.bool "a zero budget is expired at once" true
    (Stcg.Vclock.expired (Stcg.Vclock.create ~budget:0.0))

let test_export_roundtrip () =
  let run = Engine.run ~config:(config ()) mini_cputask in
  let text = Testcase.to_text mini_cputask run.Engine.r_testcases in
  let back = Testcase.of_text mini_cputask text in
  check Alcotest.int "same count" (List.length run.Engine.r_testcases)
    (List.length back);
  List.iter2
    (fun (a : Testcase.t) (b : Testcase.t) ->
      check Alcotest.int "same length" (Testcase.length a) (Testcase.length b);
      List.iter2
        (fun sa sb ->
          check Alcotest.bool "same step inputs" true
            (Slim.Exec.values_equal sa sb))
        a.Testcase.steps b.Testcase.steps)
    run.Engine.r_testcases back;
  (* replaying the re-imported suite gives identical coverage *)
  let t1 = Testcase.replay_suite mini_cputask run.Engine.r_testcases in
  let t2 = Testcase.replay_suite mini_cputask back in
  check Alcotest.int "replay coverage equal"
    (Tracker.decision t1).Tracker.covered
    (Tracker.decision t2).Tracker.covered

(* --- state tree ------------------------------------------------------- *)

let test_state_tree_dedup () =
  let tree = State_tree.create multi_prog in
  let ex = State_tree.exec tree in
  let root = State_tree.root tree in
  let noop = Slim.Exec.inputs_of_list ex [ ("tick", V.Bool false) ] in
  let tick = Slim.Exec.inputs_of_list ex [ ("tick", V.Bool true) ] in
  (* no-op input: state unchanged -> no new node *)
  let _, st_same = Slim.Exec.run_step ex root.State_tree.state noop in
  let n1, fresh1 = State_tree.add_child tree ~parent:root ~input:noop st_same in
  check Alcotest.bool "self transition dedup" false fresh1;
  check Alcotest.int "still root" 0 n1.State_tree.id;
  (* tick changes state -> new node *)
  let _, st2 = Slim.Exec.run_step ex root.State_tree.state tick in
  let n2, fresh2 = State_tree.add_child tree ~parent:root ~input:tick st2 in
  check Alcotest.bool "new state adds node" true fresh2;
  (* adding the same state again under the same parent reuses it *)
  let n3, fresh3 = State_tree.add_child tree ~parent:root ~input:tick st2 in
  check Alcotest.bool "duplicate child reused" false fresh3;
  check Alcotest.int "same node id" n2.State_tree.id n3.State_tree.id;
  check Alcotest.int "tree size" 2 (State_tree.size tree)

let test_state_tree_path () =
  let tree = State_tree.create multi_prog in
  let ex = State_tree.exec tree in
  let root = State_tree.root tree in
  let tick = Slim.Exec.inputs_of_list ex [ ("tick", V.Bool true) ] in
  let _, st1 = Slim.Exec.run_step ex root.State_tree.state tick in
  let n1, _ = State_tree.add_child tree ~parent:root ~input:tick st1 in
  let _, st2 = Slim.Exec.run_step ex st1 tick in
  let n2, _ = State_tree.add_child tree ~parent:n1 ~input:tick st2 in
  let path = State_tree.path_inputs tree n2 in
  check Alcotest.int "path length = depth" 2 (List.length path);
  check Alcotest.int "depth" 2 n2.State_tree.depth

(* --- state tree vs the reference tree ------------------------------------

   [Ref_state_tree] is the tree as it was before its array-backed layout.
   Both trees get one random sequence of [add_child] calls over a small
   pool of snapshots, some of them equal under [Value.equal] but built
   differently ([Int n] and [Real n], [0.] and [-0.]), so dedup and equal
   hashes happen.  A pool of up to 300 snapshots lets the intern table
   grow.  After every insert every observable must agree. *)

module Ref_tree = Ref_state_tree

let pool_state m variant =
  match variant with
  | 0 -> [| V.Int m |]
  | 1 -> [| V.Real (if m = 0 then -0.0 else float m) |]
  | 2 -> [| V.Real (float m +. 0.5) |]
  | _ -> [| V.Vec [| V.Int m |] |]

let tree_disagreement tree rtree (n : State_tree.node) (is_new : bool)
    (rn : Ref_tree.node) (r_is_new : bool) =
  let same_node (a : State_tree.node) (b : Ref_tree.node) =
    a.State_tree.id = b.Ref_tree.id
    && a.State_tree.parent = b.Ref_tree.parent
    && a.State_tree.state_uid = b.Ref_tree.state_uid
    && a.State_tree.depth = b.Ref_tree.depth
    (* each tree builds its own root snapshot; every other one is the
       caller's array *)
    && (if a.State_tree.id = 0 then
          Slim.Exec.state_equal a.State_tree.state b.Ref_tree.state
        else a.State_tree.state == b.Ref_tree.state)
    && Option.equal ( == ) a.State_tree.input b.Ref_tree.input
  in
  let same_path =
    List.equal ( == ) (State_tree.path_inputs tree n) (Ref_tree.path_inputs rtree rn)
  in
  if not (same_node n rn) then Some "returned node"
  else if is_new <> r_is_new then Some "is_new"
  else if State_tree.size tree <> Ref_tree.size rtree then Some "size"
  else if State_tree.distinct_states tree <> Ref_tree.distinct_states rtree then
    Some "distinct_states"
  else if
    not
      (List.compare_lengths (State_tree.nodes tree) (Ref_tree.nodes rtree) = 0
       && List.for_all2 same_node (State_tree.nodes tree) (Ref_tree.nodes rtree))
  then Some "nodes"
  else if not same_path then Some "path_inputs"
  else if Fmt.str "%a" State_tree.pp tree <> Fmt.str "%a" Ref_tree.pp rtree then Some "pp"
  else None

(* The first disagreement over one sequence of inserts, if any. *)
let tree_case_disagreement (distinct, ops) =
  let tree = State_tree.create multi_prog in
  let rtree = Ref_tree.create multi_prog in
  let ex = State_tree.exec tree in
  let inputs =
    [| Slim.Exec.inputs_of_list ex [ ("tick", V.Bool false) ];
       Slim.Exec.inputs_of_list ex [ ("tick", V.Bool true) ] |]
  in
  let rec go k = function
    | [] ->
      let rng = Random.State.make [| distinct |]
      and rrng = Random.State.make [| distinct |] in
      if
        List.for_all
          (fun _ ->
            (State_tree.random_node tree rng).State_tree.id
            = (Ref_tree.random_node rtree rrng).Ref_tree.id)
          (List.init 20 Fun.id)
      then None
      else Some "random_node differs"
    | (p, m, variant, tick) :: rest ->
      let id = p mod State_tree.size tree in
      let state = pool_state (m mod max 1 ((distinct + 3) / 4)) variant in
      let input = inputs.(Bool.to_int tick) in
      let n, is_new =
        State_tree.add_child tree ~parent:(State_tree.node tree id) ~input state
      in
      let rn, r_is_new =
        Ref_tree.add_child rtree ~parent:(Ref_tree.node rtree id) ~input state
      in
      (match tree_disagreement tree rtree n is_new rn r_is_new with
       | None -> go (k + 1) rest
       | Some what -> Some (Fmt.str "insert %d: %s differs" k what))
  in
  go 0 ops

let prop_state_tree_reference =
  QCheck.Test.make ~name:"state tree agrees with the reference tree" ~count:30
    QCheck.(
      pair (int_range 1 300)
        (list_of_size (Gen.int_range 1 240)
           (quad small_nat small_nat (int_bound 3) bool)))
    (fun case ->
      match tree_case_disagreement case with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "%s" msg)

(* Enough distinct snapshots (over 256) that the intern table grows twice. *)
let test_state_tree_growth () =
  let rng = Random.State.make [| 0x7EE |] in
  let ops =
    List.init 450 (fun _ ->
        ( Random.State.int rng 1000,
          Random.State.int rng 1000,
          Random.State.int rng 4,
          Random.State.bool rng ))
  in
  match tree_case_disagreement (1000, ops) with
  | None -> ()
  | Some msg -> Alcotest.fail msg

let test_random_first_hybrid () =
  let run =
    Engine.run
      ~config:{ (config ()) with Engine.random_first = true }
      mini_cputask
  in
  check Alcotest.bool "hybrid reaches full coverage" true
    (Tracker.fully_covered run.Engine.r_tracker)

(* --- registry fingerprint ---------------------------------------------- *)

(* Bit-identity pin for the solving path: every solve the engine issues
   (target, node, result, virtual time) and every emitted test case
   (origin, timestamp, new branches, inputs), with floats printed as
   exact hex.  Covers STCG on all registry models, the state-blind
   ablation on two models and SLDV multi-step solving on two models.
   A refactor that changes any outcome, virtual charge or emitted input
   changes this text.  On a mismatch the observed text is written next
   to the test binary as [engine_fingerprint.observed.txt]. *)

let rec pp_value_exact ppf (v : V.t) =
  match v with
  | V.Bool b -> Fmt.pf ppf "%b" b
  | V.Int i -> Fmt.pf ppf "%d" i
  | V.Real r -> Fmt.pf ppf "%h" r
  | V.Vec a -> Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any ",") pp_value_exact) a

let pp_testcase_exact buf (tc : Testcase.t) =
  Buffer.add_string buf
    (Fmt.str "tc %d %a t=%h new=%a
" tc.Testcase.tc_id Testcase.pp_origin
       tc.Testcase.origin tc.Testcase.found_at
       Fmt.(list ~sep:(any ",") Branch.pp_key)
       tc.Testcase.new_branches);
  List.iter
    (fun step ->
      Buffer.add_string buf
        (Fmt.str "  %a
" Fmt.(array ~sep:(any " ") pp_value_exact) step))
    tc.Testcase.steps

(* Every run both fingerprints pin, made once per test binary: STCG on
   all registry models, the state-blind ablation on two models, and
   SLDV and SimCoTest on two models each. *)
type fp_run =
  | Fp_engine of string * Engine.run
  | Fp_baseline of Stcg.Run_result.t

let fingerprint_runs =
  lazy
    (let prog name =
       (Option.get (Models.Registry.find name)).Models.Registry.program ()
     in
     let engine label ?(state_aware = true) ~budget name =
       let run =
         Engine.run
           ~config:{ (config ~budget ~seed:1 ()) with Engine.state_aware }
           (prog name)
       in
       Fp_engine (Fmt.str "%s %s budget=%g" label name budget, run)
     in
     List.map
       (fun name ->
         engine "stcg" ~budget:(if name = "LANSwitch" then 100.0 else 200.0) name)
       Models.Registry.names
     @ List.map (engine "blind" ~budget:200.0 ~state_aware:false) [ "TCP"; "CPUTask" ]
     @ List.map
         (fun name ->
           Fp_baseline
             (Baselines.Sldv.run
                ~config:{ Baselines.Sldv.default_config with Baselines.Sldv.budget = 300.0 }
                ~model:name (prog name)))
         [ "CPUTask"; "TCP" ]
     @ List.map
         (fun name ->
           Fp_baseline
             (Baselines.Simcotest.run
                ~config:
                  { Baselines.Simcotest.default_config with Baselines.Simcotest.budget = 300.0 }
                ~model:name (prog name)))
         [ "CPUTask"; "TCP" ])

let fingerprint_engine buf header (run : Engine.run) =
  Buffer.add_string buf
    (Fmt.str "== %s end=%h\n" header (Stcg.Vclock.now run.Engine.r_clock));
  List.iter
    (function
      | Engine.Ev_solve { time; target; node; result } ->
        Buffer.add_string buf
          (Fmt.str "solve %a node=%d %s t=%h\n" Symexec.Explore.pp_target target
             node
             (match result with
              | `Sat -> "sat"
              | `Unsat -> "unsat"
              | `Unknown -> "unknown")
             time)
      | Engine.Ev_testcase tc -> pp_testcase_exact buf tc
      | Engine.Ev_random_exec _ | Engine.Ev_coverage _ -> ())
    run.Engine.r_events

let engine_fingerprint () =
  let buf = Buffer.create 65536 in
  List.iter
    (function
      | Fp_engine (header, run) -> fingerprint_engine buf header run
      | Fp_baseline r when r.Stcg.Run_result.tool = "SLDV" ->
        Buffer.add_string buf
          (Fmt.str "== sldv %s budget=300 end=%h\n" r.Stcg.Run_result.model
             r.Stcg.Run_result.final_time);
        List.iter (pp_testcase_exact buf) r.Stcg.Run_result.testcases
      | Fp_baseline _ -> ())
    (Lazy.force fingerprint_runs);
  Buffer.contents buf

let test_engine_fingerprint () = Golden.check "engine_fingerprint" (engine_fingerprint ())

(* Coverage timeline pin, over the same runs: every [Ev_coverage] and
   [Ev_random_exec] of an engine run, every timeline point of a
   baseline run, and the final decision, condition and MC/DC ratios. *)
let coverage_fingerprint () =
  let buf = Buffer.create 65536 in
  let ratios tracker =
    let r name (x : Tracker.ratio) =
      Fmt.str " %s=%d/%d" name x.Tracker.covered x.Tracker.total
    in
    Buffer.add_string buf
      (Fmt.str "final%s%s%s\n"
         (r "decision" (Tracker.decision tracker))
         (r "condition" (Tracker.condition tracker))
         (r "mcdc" (Tracker.mcdc tracker)))
  in
  List.iter
    (function
      | Fp_engine (header, run) ->
        Buffer.add_string buf (Fmt.str "== %s\n" header);
        List.iter
          (function
            | Engine.Ev_coverage { time; decision_covered } ->
              Buffer.add_string buf (Fmt.str "cov t=%h covered=%d\n" time decision_covered)
            | Engine.Ev_random_exec { time; node; len } ->
              Buffer.add_string buf (Fmt.str "random t=%h node=%d len=%d\n" time node len)
            | Engine.Ev_solve _ | Engine.Ev_testcase _ -> ())
          run.Engine.r_events;
        ratios run.Engine.r_tracker
      | Fp_baseline r ->
        Buffer.add_string buf
          (Fmt.str "== %s %s budget=300\n" r.Stcg.Run_result.tool r.Stcg.Run_result.model);
        List.iter
          (fun (time, pct) -> Buffer.add_string buf (Fmt.str "cov t=%h pct=%h\n" time pct))
          r.Stcg.Run_result.timeline;
        ratios r.Stcg.Run_result.tracker)
    (Lazy.force fingerprint_runs);
  Buffer.contents buf

let test_coverage_fingerprint () =
  Golden.check "coverage_fingerprint" (coverage_fingerprint ())

let () =
  Alcotest.run "engine"
    [
      ( "coverage",
        [
          Alcotest.test_case "multi-step model" `Quick test_full_coverage_multi;
          Alcotest.test_case "mini cputask" `Quick test_full_coverage_mini_cputask;
          Alcotest.test_case "replay matches" `Quick test_testcases_replay_to_same_coverage;
          Alcotest.test_case "solved origins" `Quick test_solved_marker_origins;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "ablation: state-aware" `Quick test_state_aware_ablation;
          Alcotest.test_case "ablation: unsorted" `Quick test_unsorted_branches_still_work;
          Alcotest.test_case "hc4 memo identity" `Quick test_hc4_memo_identity;
          Alcotest.test_case "timeline monotone" `Quick test_timeline_monotone;
          Alcotest.test_case "budget respected" `Quick test_budget_respected;
          Alcotest.test_case "vclock budget guard" `Quick test_vclock_budget_guard;
          Alcotest.test_case "hybrid random-first" `Quick test_random_first_hybrid;
          Alcotest.test_case "registry fingerprint" `Quick test_engine_fingerprint;
          Alcotest.test_case "coverage fingerprint" `Quick test_coverage_fingerprint;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "export roundtrip" `Quick test_export_roundtrip;
        ] );
      ( "state tree",
        [
          Alcotest.test_case "dedup" `Quick test_state_tree_dedup;
          Alcotest.test_case "path" `Quick test_state_tree_path;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19 |])
            prop_state_tree_reference;
          Alcotest.test_case "intern growth vs reference" `Quick test_state_tree_growth;
        ] );
    ]
