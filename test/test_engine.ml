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

let test_random_first_hybrid () =
  let run =
    Engine.run
      ~config:{ (config ()) with Engine.random_first = true }
      mini_cputask
  in
  check Alcotest.bool "hybrid reaches full coverage" true
    (Tracker.fully_covered run.Engine.r_tracker)

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
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "export roundtrip" `Quick test_export_roundtrip;
        ] );
      ( "state tree",
        [
          Alcotest.test_case "dedup" `Quick test_state_tree_dedup;
          Alcotest.test_case "path" `Quick test_state_tree_path;
        ] );
    ]
