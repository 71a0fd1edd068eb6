(* Tests for one-step (state-aware) and multi-step symbolic execution.
   The central property: a Sat answer's inputs, executed concretely from
   the same state, drive the model into the target branch. *)

module V = Slim.Value
module Ir = Slim.Ir
module Interp = Slim.Interp
module Exec = Slim.Exec
module Branch = Slim.Branch
module SV = Symexec.Sym_value
module Ex = Symexec.Explore
module T = Solver.Term

let check = Alcotest.check

(* Execute [inputs] from [state] and report whether [target] was hit. *)
let hits prog state inputs target =
  let ex = Exec.handle prog in
  let hit = ref false in
  let on_event = function
    | Exec.Branch_hit k when Branch.equal_key k target -> hit := true
    | _ -> ()
  in
  let st = ref state in
  List.iter
    (fun ins ->
      let _, st' = Exec.run_step ~on_event ex !st ins in
      st := st')
    inputs;
  !hit

let expect_sat_and_hit ?config prog state target =
  match Ex.solve_branch ?config prog ~state ~target with
  | Ex.Sat inputs, _ ->
    check Alcotest.bool "solved inputs hit the target" true
      (hits prog state inputs target)
  | Ex.Unsat, _ -> Alcotest.fail "expected sat, got unsat"
  | Ex.Unknown, _ -> Alcotest.fail "expected sat, got unknown"

let simple_prog =
  let open Ir in
  renumber_decisions
    {
      name = "simple";
      inputs = [ input "x" (V.tint_range (-100) 100) ];
      outputs = [ output "y" V.tint ];
      states = [];
      locals = [];
      body =
        [
          if_ (iv "x" >: ci 5)
            [ assign_out "y" (ci 1) ]
            [ assign_out "y" (ci 0) ];
        ];
    }

let test_simple_then_else () =
  let st = Exec.initial_state (Exec.handle simple_prog) in
  expect_sat_and_hit simple_prog st (0, Branch.Then);
  expect_sat_and_hit simple_prog st (0, Branch.Else)

let state_dep_prog =
  let open Ir in
  renumber_decisions
    {
      name = "statedep";
      inputs = [ input "x" (V.tint_range 0 1000) ];
      outputs = [ output "hit" V.Tbool ];
      states = [ state "secret" (V.tint_range 0 1000) (V.Int 0) ];
      locals = [];
      body =
        [
          if_ (iv "x" =: sv "secret")
            [ assign_out "hit" (cb true) ]
            [ assign_out "hit" (cb false) ];
        ];
    }

let test_state_as_constant () =
  (* with secret = 437 in the snapshot, the solver must find x = 437 *)
  let ex = Exec.handle state_dep_prog in
  let st = Exec.state_of_list ex [ ("secret", V.Int 437) ] in
  (match Ex.solve_branch state_dep_prog ~state:st ~target:(0, Branch.Then) with
   | Ex.Sat [ ins ], _ ->
     check Alcotest.int "x equals state constant" 437
       (V.to_int (Exec.find_input ex ins "x"))
   | _ -> Alcotest.fail "expected one-step sat")

let nested_prog =
  let open Ir in
  renumber_decisions
    {
      name = "nested";
      inputs =
        [ input "a" (V.tint_range 0 100); input "b" (V.tint_range 0 100) ];
      outputs = [ output "y" V.tint ];
      states = [];
      locals = [];
      body =
        [
          if_ (iv "a" >: ci 10)
            [
              if_ (iv "b" =: iv "a" +: ci 5)
                [ assign_out "y" (ci 2) ]
                [ assign_out "y" (ci 1) ];
            ]
            [ assign_out "y" (ci 0) ];
        ];
    }

let test_nested_target () =
  let ex = Exec.handle nested_prog in
  let st = Exec.initial_state ex in
  (* deep branch: a > 10 && b = a + 5 *)
  expect_sat_and_hit nested_prog st (1, Branch.Then);
  (match Ex.solve_branch nested_prog ~state:st ~target:(1, Branch.Then) with
   | Ex.Sat [ ins ], _ ->
     let a = V.to_int (Exec.find_input ex ins "a") in
     let b = V.to_int (Exec.find_input ex ins "b") in
     check Alcotest.bool "constraints hold" true (a > 10 && b = a + 5)
   | _ -> Alcotest.fail "expected sat")

(* The CPUTask-style pattern: a queue in state, input ID must match a
   stored element. *)
let queue_prog =
  let open Ir in
  renumber_decisions
    {
      name = "queue";
      inputs =
        [ input "id" (V.tint_range 0 255); input "slot" (V.tint_range 0 3) ];
      outputs = [ output "found" V.Tbool ];
      states =
        [ state "queue" (V.Tvec (V.tint_range 0 255, 4))
            (V.Vec (Array.make 4 (V.Int 0))) ];
      locals = [];
      body =
        [
          if_ (index (sv "queue") (iv "slot") =: iv "id" &&: (iv "id" >: ci 0))
            [ assign_out "found" (cb true) ]
            [ assign_out "found" (cb false) ];
        ];
    }

let test_queue_match () =
  (* queue = [0; 77; 0; 13]: solver must pick slot/id matching an entry *)
  let ex = Exec.handle queue_prog in
  let q = V.Vec [| V.Int 0; V.Int 77; V.Int 0; V.Int 13 |] in
  let st = Exec.state_of_list ex [ ("queue", q) ] in
  (match Ex.solve_branch queue_prog ~state:st ~target:(0, Branch.Then) with
   | Ex.Sat [ ins ], _ ->
     let id = V.to_int (Exec.find_input ex ins "id") in
     let slot = V.to_int (Exec.find_input ex ins "slot") in
     check Alcotest.bool "matches a stored task id" true
       ((slot = 1 && id = 77) || (slot = 3 && id = 13));
     check Alcotest.bool "executes into branch" true
       (hits queue_prog st [ ins ] (0, Branch.Then))
   | _ -> Alcotest.fail "expected sat on populated queue")

let test_queue_unsat_when_empty () =
  (* empty queue: id > 0 can never match a zero entry *)
  let st = Exec.initial_state (Exec.handle queue_prog) in
  match Ex.solve_branch queue_prog ~state:st ~target:(0, Branch.Then) with
  | Ex.Unsat, _ -> ()
  | Ex.Sat _, _ -> Alcotest.fail "must be unsat on empty queue"
  | Ex.Unknown, _ -> Alcotest.fail "should be decided unsat"

let test_state_only_guard_unsat () =
  (* guard depends only on state; wrong state -> unsat in one step *)
  let open Ir in
  let prog =
    renumber_decisions
      {
        name = "stateguard";
        inputs = [ input "x" (V.tint_range 0 10) ];
        outputs = [];
        states = [ state "mode" (V.tint_range 0 5) (V.Int 0) ];
        locals = [];
        body = [ if_ (sv "mode" =: ci 3) [] [] ];
      }
  in
  let ex = Exec.handle prog in
  let st = Exec.initial_state ex in
  (match Ex.solve_branch prog ~state:st ~target:(0, Branch.Then) with
   | Ex.Unsat, _ -> ()
   | _ -> Alcotest.fail "state-false guard must be unsat");
  let st3 = Exec.state_of_list ex [ ("mode", V.Int 3) ] in
  match Ex.solve_branch prog ~state:st3 ~target:(0, Branch.Then) with
  | Ex.Sat _, _ -> ()
  | _ -> Alcotest.fail "state-true guard must be trivially sat"

(* Accumulator needing multiple steps: acc increments by at most 1 per
   step (input-gated); branch needs acc >= 2 -> unreachable in one step
   from the initial state but reachable in three. *)
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
          if_ (sv "acc" >=: ci 2)
            [ assign_out "deep" (cb true) ]
            [];
          if_ (iv "tick" &&: (sv "acc" <: ci 10))
            [ assign_state "acc" (sv "acc" +: ci 1) ]
            [];
        ];
    }

let test_multi_step_needed () =
  let st = Exec.initial_state (Exec.handle multi_prog) in
  (* one step from the initial state cannot reach acc >= 2 *)
  (match Ex.solve_branch multi_prog ~state:st ~target:(0, Branch.Then) with
   | Ex.Unsat, _ -> ()
   | _ -> Alcotest.fail "one-step must be unsat from initial state");
  (* multi-step with enough horizon finds it *)
  match Ex.solve_branch_multi multi_prog ~horizon:4 ~target:(0, Branch.Then) with
  | Ex.Sat inputs, _ ->
    check Alcotest.bool "at least 3 steps" true (List.length inputs >= 3);
    check Alcotest.bool "sequence hits target" true
      (hits multi_prog st inputs (0, Branch.Then))
  | Ex.Unsat, _ -> Alcotest.fail "multi-step should find it"
  | Ex.Unknown, _ -> Alcotest.fail "multi-step should find it (unknown)"

let test_multi_step_insufficient_horizon () =
  match Ex.solve_branch_multi multi_prog ~horizon:2 ~target:(0, Branch.Then) with
  | Ex.Unsat, _ -> ()
  | Ex.Sat _, _ -> Alcotest.fail "horizon 2 cannot reach acc >= 2"
  | Ex.Unknown, _ -> ()

let test_one_step_after_state_advance () =
  (* the STCG move: execute to advance the state, then one-step solve *)
  let ex = Exec.handle multi_prog in
  let st = Exec.initial_state ex in
  let tick = Exec.inputs_of_list ex [ ("tick", V.Bool true) ] in
  let _, st1 = Exec.run_step ex st tick in
  let _, st2 = Exec.run_step ex st1 tick in
  (* now acc = 2: the deep branch is trivially reachable in one step *)
  match Ex.solve_branch multi_prog ~state:st2 ~target:(0, Branch.Then) with
  | Ex.Sat inputs, _ ->
    check Alcotest.bool "hits from advanced state" true
      (hits multi_prog st2 inputs (0, Branch.Then))
  | _ -> Alcotest.fail "state-aware solve must succeed at acc=2"

let test_free_decision_before_target () =
  (* an earlier non-ancestor decision changes a local feeding the target *)
  let open Ir in
  let prog =
    renumber_decisions
      {
        name = "free";
        inputs =
          [ input "sel" V.Tbool; input "x" (V.tint_range 0 100) ];
        outputs = [ output "y" V.tint ];
        states = [];
        locals = [ local "t" V.tint ];
        body =
          [
            if_ (iv "sel")
              [ assign "t" (iv "x" +: ci 100) ]
              [ assign "t" (iv "x") ];
            if_ (lv "t" >: ci 150)
              [ assign_out "y" (ci 1) ]
              [ assign_out "y" (ci 0) ];
          ];
      }
  in
  let ex = Exec.handle prog in
  let st = Exec.initial_state ex in
  (* t > 150 requires sel && x > 50 *)
  match Ex.solve_branch prog ~state:st ~target:(1, Branch.Then) with
  | Ex.Sat [ ins ], _ ->
    check Alcotest.bool "sel chosen true" true
      (V.to_bool (Exec.find_input ex ins "sel"));
    check Alcotest.bool "x > 50" true
      (V.to_int (Exec.find_input ex ins "x") > 50);
    check Alcotest.bool "hits" true (hits prog st [ ins ] (1, Branch.Then))
  | _ -> Alcotest.fail "expected sat through free decision"

let test_switch_targets () =
  let open Ir in
  let prog =
    renumber_decisions
      {
        name = "sw";
        inputs = [ input "op" (V.tint_range 0 9) ];
        outputs = [ output "y" V.tint ];
        states = [];
        locals = [];
        body =
          [
            switch (iv "op")
              [ (1, [ assign_out "y" (ci 10) ]); (2, [ assign_out "y" (ci 20) ]) ]
              [ assign_out "y" (ci 0) ];
          ];
      }
  in
  let ex = Exec.handle prog in
  let st = Exec.initial_state ex in
  let solve_case target expect_pred =
    match Ex.solve_branch prog ~state:st ~target with
    | Ex.Sat [ ins ], _ ->
      let op = V.to_int (Exec.find_input ex ins "op") in
      check Alcotest.bool "op selects the case" true (expect_pred op);
      check Alcotest.bool "hits" true (hits prog st [ ins ] target)
    | _ -> Alcotest.fail "expected sat"
  in
  solve_case (0, Branch.Case 1) (fun op -> op = 1);
  solve_case (0, Branch.Case 2) (fun op -> op = 2);
  solve_case (0, Branch.Default) (fun op -> op <> 1 && op <> 2)

let prop_sat_implies_hit =
  (* random secrets: state-aware solving must always produce a hitting
     input for the state-equality program *)
  QCheck.Test.make ~name:"sat answers hit their target" ~count:60
    QCheck.(int_range 0 1000)
    (fun secret ->
      let st =
        Exec.state_of_list (Exec.handle state_dep_prog)
          [ ("secret", V.Int secret) ]
      in
      match
        Ex.solve_branch state_dep_prog ~state:st ~target:(0, Branch.Then)
      with
      | Ex.Sat inputs, _ -> hits state_dep_prog st inputs (0, Branch.Then)
      | _ -> false)

let test_cost_accounting () =
  let st = Exec.initial_state (Exec.handle nested_prog) in
  let _, cost = Ex.solve_branch nested_prog ~state:st ~target:(1, Branch.Then) in
  check Alcotest.bool "solver was consulted" true (cost.Ex.solver_calls >= 1);
  check Alcotest.bool "terms were submitted" true (cost.Ex.term_nodes > 0)

(* No silent failure mode: every [Unknown] outcome is counted under
   exactly one cause.  TCP hits the path budget, so the total is
   non-zero. *)
let test_unknown_causes_counted () =
  let prog = (Option.get (Models.Registry.find "TCP")).Models.Registry.program () in
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    (fun () ->
      ignore
        (Stcg.Engine.run
           ~config:{ Stcg.Engine.default_config with budget = 300.0; seed = 1 }
           prog);
      let counters = (Telemetry.snapshot ()).Telemetry.sn_counters in
      let get name = Option.value ~default:0 (List.assoc_opt name counters) in
      let total = get "symexec.unknown" in
      check Alcotest.bool "some solves end Unknown" true (total > 0);
      check Alcotest.int "causes sum to symexec.unknown" total
        (List.fold_left
           (fun acc cause -> acc + get ("symexec.unknown." ^ cause))
           0
           [ "term_cap"; "node_budget"; "solver"; "path_budget"; "sym_error" ]))

(* --- symbolic errors and name resolution ---------------------------------- *)

(* Run [f] with telemetry on; return its result and a counter reader. *)
let with_counters f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    (fun () ->
      let r = f () in
      let counters = (Telemetry.snapshot ()).Telemetry.sn_counters in
      (r, fun name -> Option.value ~default:0 (List.assoc_opt name counters)))

let outcome_name = function
  | Ex.Sat _ -> "sat"
  | Ex.Unsat -> "unsat"
  | Ex.Unknown -> "unknown"

(* Decision 0's then arm reads an undeclared local; its else arm reads
   element 7 of a 4-element state vector.  Neither is a type error the
   solver sees up front: each fails only when the walk evaluates it. *)
let faulty_prog =
  let open Ir in
  renumber_decisions
    {
      name = "faulty";
      inputs = [ input "x" (V.tint_range 0 100) ];
      outputs = [ output "y" V.tint ];
      states =
        [ state "q" (V.Tvec (V.tint_range 0 9, 4))
            (V.Vec (Array.make 4 (V.Int 0))) ];
      locals = [];
      body =
        [
          if_ (iv "x" >: ci 5)
            [ assign_out "y" (lv "ghost") ]
            [ assign_out "y" (index (sv "q") (ci 7)) ];
          if_ (iv "x" =: ci 50) [ assign_out "y" (ci 1) ] [];
          if_ (iv "x" =: ci 3) [ assign_out "y" (ci 2) ] [];
        ];
    }

let solve_faulty target =
  let st = Exec.initial_state (Exec.handle faulty_prog) in
  with_counters (fun () ->
      fst (Ex.solve_branch faulty_prog ~state:st ~target))

let test_unexplored_errors_harmless () =
  (* the target is decision 0's own arm: the walk stops on entry, so
     neither faulty body is evaluated *)
  List.iter
    (fun target ->
      let outcome, count = solve_faulty target in
      check Alcotest.string "faulty arm never walked" "sat" (outcome_name outcome);
      check Alcotest.int "no sym_error" 0 (count "symexec.unknown.sym_error"))
    [ (0, Branch.Then); (0, Branch.Else) ]

let test_unbound_on_explored_arm () =
  (* x = 50 keeps decision 0's then arm feasible: walking it reads the
     undeclared local, which ends the whole solve *)
  let outcome, count = solve_faulty (1, Branch.Then) in
  check Alcotest.string "unknown" "unknown" (outcome_name outcome);
  check Alcotest.int "counted as sym_error" 1 (count "symexec.unknown.sym_error");
  check Alcotest.int "one unknown" 1 (count "symexec.unknown")

let test_oob_index_on_explored_arm () =
  (* x = 3 prunes the then arm; the else arm's constant index 7 is out
     of bounds *)
  let outcome, count = solve_faulty (2, Branch.Then) in
  check Alcotest.string "unknown" "unknown" (outcome_name outcome);
  check Alcotest.int "counted as sym_error" 1 (count "symexec.unknown.sym_error")

(* A constant condition picks one arm of an [Ite]: the walk never
   evaluates the other, an out-of-bounds read here. *)
let test_constant_ite_one_arm () =
  let open Ir in
  let prog =
    renumber_decisions
      {
        name = "ite_arm";
        inputs = [ input "x" (V.tint_range 0 100) ];
        outputs = [ output "y" V.tint ];
        states =
          [
            state "on" V.Tbool (V.Bool true);
            state "q" (V.Tvec (V.tint_range 0 9, 4)) (V.Vec (Array.make 4 (V.Int 0)));
          ];
        locals = [ local "t" V.tint ];
        body =
          [
            assign "t" (ite (sv "on") (iv "x") (index (sv "q") (ci 7)));
            if_ (lv "t" >: ci 60) [ assign_out "y" (ci 1) ] [];
          ];
      }
  in
  let st = Exec.initial_state (Exec.handle prog) in
  let outcome, count =
    with_counters (fun () -> fst (Ex.solve_branch prog ~state:st ~target:(0, Branch.Then)))
  in
  check Alcotest.string "sat" "sat" (outcome_name outcome);
  check Alcotest.int "no sym_error" 0 (count "symexec.unknown.sym_error")

(* The target's guard reads a state the step writes before it: the
   guard must be seeded with the written value, not the snapshot's.
   From s = 0, x < s would seed x < 0 (Unsat); after s := x + 1 the
   guard x < x + 1 holds for every x. *)
let test_stale_seed () =
  let open Ir in
  let prog =
    renumber_decisions
      {
        name = "stale_seed";
        inputs = [ input "x" (V.tint_range 0 10) ];
        outputs = [ output "y" V.tint ];
        states = [ state "s" V.tint (V.Int 0) ];
        locals = [];
        body =
          [
            assign_state "s" (iv "x" +: ci 1);
            if_ (iv "x" <: sv "s") [ assign_out "y" (ci 1) ] [];
          ];
      }
  in
  let lowered = Exec.lowered (Exec.handle prog) in
  (match lowered.Slim.Lower.decisions.(0) with
   | Slim.Lower.If { input_state_only; _ } ->
     check Alcotest.bool "guard not seeded" false input_state_only
   | Slim.Lower.Assign _ | Slim.Lower.Switch _ -> Alcotest.fail "expected an If");
  let st = Exec.initial_state (Exec.handle prog) in
  expect_sat_and_hit prog st (0, Branch.Then)

let test_unbound_target_guard () =
  (* an unbound input in the target's own guard fails the seed
     constraint (counted separately) and then the walk *)
  let open Ir in
  let prog =
    renumber_decisions
      {
        name = "ghost_guard";
        inputs = [ input "x" (V.tint_range 0 10) ];
        outputs = [];
        states = [];
        locals = [];
        body = [ if_ (iv "ghost" >: ci 0) [] [] ];
      }
  in
  let st = Exec.initial_state (Exec.handle prog) in
  let outcome, count =
    with_counters (fun () ->
        fst (Ex.solve_branch prog ~state:st ~target:(0, Branch.Then)))
  in
  check Alcotest.string "unknown" "unknown" (outcome_name outcome);
  check Alcotest.int "seed failure counted" 1 (count "symexec.seed_sym_error");
  check Alcotest.int "walk failure counted" 1 (count "symexec.unknown.sym_error")

let test_duplicate_declarations_last_wins () =
  (* two locals named [t] with defaults 0 and 5, two states named [s]
     with snapshot values 3 and 4: the last declaration of each is the
     one the body reads, as in the concrete executor *)
  let prog = Dup_decls.prog and st = Dup_decls.state in
  let solve target = outcome_name (fst (Ex.solve_branch prog ~state:st ~target)) in
  check Alcotest.string "local t is the second one" "sat" (solve (0, Branch.Then));
  check Alcotest.string "local t is not the first one" "unsat" (solve (0, Branch.Else));
  check Alcotest.string "state s is slot 1" "sat" (solve (1, Branch.Then));
  check Alcotest.string "state s is not slot 0" "unsat" (solve (1, Branch.Else));
  check Alcotest.bool "concrete run agrees" true (hits prog st [ [| V.Int 0 |] ] (1, Branch.Then))

let test_undeclared_write () =
  (* the walk reaches a write to a name no declaration binds: it raises
     there, like the concrete executor, and the solve ends [Unknown] *)
  let open Ir in
  let prog =
    renumber_decisions
      {
        name = "ghost_write";
        inputs = [ input "x" (V.tint_range 0 100) ];
        outputs = [ output "y" V.tint ];
        states = [];
        locals = [];
        body =
          [
            if_ (iv "x" >: ci 5) [ assign "ghost" (iv "x") ] [];
            if_ (iv "x" =: ci 50) [ assign_out "y" (ci 1) ] [];
          ];
      }
  in
  let outcome, count =
    with_counters (fun () ->
        fst (Ex.solve_branch prog ~state:[||] ~target:(1, Branch.Then)))
  in
  check Alcotest.string "unknown" "unknown" (outcome_name outcome);
  check Alcotest.int "counted as sym_error" 1 (count "symexec.unknown.sym_error")

let test_vector_input_reassembles () =
  let open Ir in
  let prog =
    renumber_decisions
      {
        name = "vec_in";
        inputs =
          [ input "k" (V.tint_range 0 2); input "v" (V.Tvec (V.tint_range 0 9, 3)) ];
        outputs = [ output "y" V.Tbool ];
        states = [];
        locals = [];
        body =
          [
            if_
              (index (iv "v") (ci 1) =: ci 7 &&: (index (iv "v") (iv "k") =: ci 4))
              [ assign_out "y" (cb true) ]
              [ assign_out "y" (cb false) ];
          ];
      }
  in
  let ex = Exec.handle prog in
  let st = Exec.initial_state ex in
  (match Ex.solve_branch prog ~state:st ~target:(0, Branch.Then) with
   | Ex.Sat [ ins ], _ -> (
     match Exec.find_input ex ins "v" with
     | V.Vec ([| _; _; _ |] as v) ->
       let k = V.to_int (Exec.find_input ex ins "k") in
       check Alcotest.int "v.1 = 7" 7 (V.to_int v.(1));
       check Alcotest.bool "k avoids slot 1" true (k <> 1);
       check Alcotest.int "v.k = 4" 4 (V.to_int v.(k));
       check Alcotest.bool "hits" true (hits prog st [ ins ] (0, Branch.Then))
     | _ -> Alcotest.fail "v must reassemble to a 3-vector")
   | _ -> Alcotest.fail "expected one-step sat");
  (* flattened names [v.k] reassemble; missing ones take the default *)
  let a =
    Solver.Csp.Smap.(
      empty |> add "s1$v.0" (V.Int 1) |> add "s1$v.2" (V.Int 3)
      |> add "s1$k" (V.Int 2))
  in
  match SV.inputs_of_assignment ~prefix:"s1$" prog a with
  | [| V.Int 2; V.Vec [| V.Int 1; V.Int 0; V.Int 3 |] |] -> ()
  | _ -> Alcotest.fail "inputs_of_assignment reassembly"

let test_lowered_once () =
  (* the per-domain symbolic constants and register template are
     memoized per program: many solves against one program value build
     them once, and a structurally equal but distinct program value
     builds them again *)
  let fresh () = { simple_prog with Ir.name = "simple" } in
  let p1 = fresh () in
  let st = Exec.initial_state (Exec.handle p1) in
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    (fun () ->
      let compiles () =
        Option.value ~default:0
          (List.assoc_opt "symexec.compiles"
             (Telemetry.snapshot ~nondet:true ()).Telemetry.sn_counters)
      in
      for _ = 1 to 5 do
        ignore (Ex.solve_branch p1 ~state:st ~target:(0, Branch.Then))
      done;
      check Alcotest.int "one lowering for five solves" 1 (compiles ());
      ignore (Ex.solve_branch (fresh ()) ~state:st ~target:(0, Branch.Then));
      check Alcotest.int "a new program value is lowered" 2 (compiles ()))

(* --- the prefix memo ----------------------------------------------------- *)

(* A memo only saves propagations: solving through one shared memo must
   give every outcome, cost and path/prune count that solving with a
   fresh memo per solve gives. *)

let c_paths = Telemetry.Counter.make "symexec.paths"
let c_prunes = Telemetry.Counter.make "symexec.prunes"
let c_hits = Telemetry.Counter.make "symexec.prefix_memo_hits"
let c_misses = Telemetry.Counter.make "symexec.prefix_memo_misses"
let c_clears = Telemetry.Counter.make "symexec.prefix_memo_clears"
let total = Telemetry.Counter.total

let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    f

(* One solve: its outcome and cost (or the exception it raised) and its
   [symexec.paths] and [symexec.prunes] deltas. *)
let observe ?memo prog (config, symbolic_state, state, target) =
  let paths = total c_paths and prunes = total c_prunes in
  let result =
    match Ex.solve_target ~config ~symbolic_state ?memo prog ~state ~target with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  (result, total c_paths - paths, total c_prunes - prunes)

(* [compare], not [=]: a real input may be [nan]. *)
let same_observations a b =
  List.compare_lengths a b = 0 && List.for_all2 (fun x y -> compare x y = 0) a b

let small_config =
  { Ex.default_config with Ex.max_paths = 64; node_budget = 4000 }

(* Random (state, target) solves on one fuzz-generated program, with
   repeats, and with the [hc4_memo] flag and the state-blind mode (a
   second variable list) switching between solves. *)
let prop_memo_differential memo_hits =
  QCheck.Test.make ~name:"shared prefix memo = fresh memo per solve" ~count:80
    QCheck.(make Gen.(pair (int_bound 1_000_000) (int_range 4 24)))
    (fun (seed, n) ->
      let rng = Util.Splitmix.create seed in
      match
        Fuzzer.Gen.program_of
          (Fuzzer.Gen.gen_model rng ~size:(8 + Util.Splitmix.int rng 16))
      with
      | exception _ -> QCheck.assume_fail ()
      | prog ->
        let ex = Exec.handle prog in
        let states =
          let rec go st acc = function
            | [] -> Array.of_list (List.rev acc)
            | row :: rest -> (
              match Exec.run_step ex st (Exec.inputs_of_list ex row) with
              | _, st' -> go st' (st' :: acc) rest
              | exception Exec.Eval_error _ -> Array.of_list (List.rev acc))
          in
          let st0 = Exec.initial_state ex in
          go st0 [ st0 ] (Fuzzer.Gen.gen_inputs rng prog ~steps:4)
        in
        let targets =
          Array.of_list
            (List.map (fun (b : Branch.t) -> Ex.Branch_target b.Branch.key)
               (Exec.branches ex)
            @ List.concat_map
                (fun (decision, d) ->
                  match d with
                  | `If cond ->
                    List.concat
                      (List.mapi
                         (fun atom _ ->
                           [
                             Ex.Condition_target { decision; atom; value = true };
                             Ex.Condition_target { decision; atom; value = false };
                           ])
                         (Ir.atoms_of_condition cond))
                  | `Switch _ -> [])
                (Exec.decisions ex))
        in
        if Array.length targets = 0 then QCheck.assume_fail ();
        let pick a = a.(Util.Splitmix.int rng (Array.length a)) in
        let solves =
          List.init n (fun _ ->
              let hc4_memo = Util.Splitmix.int rng 8 > 0 in
              let symbolic_state = Util.Splitmix.int rng 8 = 0 in
              ( { small_config with Ex.hc4_memo },
                symbolic_state,
                pick states,
                pick targets ))
        in
        with_telemetry (fun () ->
            let memo = Ex.create_memo () in
            let hits = total c_hits in
            let shared = List.map (observe ~memo prog) solves in
            memo_hits := !memo_hits + total c_hits - hits;
            let fresh = List.map (observe prog) solves in
            same_observations shared fresh))

let test_memo_differential () =
  let memo_hits = ref 0 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 23 |])
    (prop_memo_differential memo_hits);
  check Alcotest.bool "the shared memo was hit" true (!memo_hits > 0)

(* --- the walk against its reference ------------------------------------ *)

(* [Ref_symexec] is the walk before constant folding: terms for every
   value, a fresh register file per solve and a CPS walk.  Both count
   into the same telemetry counters, so a solve's deltas compare too. *)
module Ref = Ref_symexec

let walk_counters =
  List.map Telemetry.Counter.make
    [
      "symexec.solves"; "symexec.sat"; "symexec.unsat"; "symexec.unknown";
      "symexec.paths"; "symexec.prunes"; "symexec.solver_nodes";
      "symexec.seed_sym_error"; "symexec.prefix_memo_hits";
      "symexec.prefix_memo_misses"; "symexec.prefix_memo_clears";
      "symexec.unknown.term_cap"; "symexec.unknown.node_budget";
      "symexec.unknown.solver"; "symexec.unknown.path_budget";
      "symexec.unknown.sym_error";
    ]

(* A solve's outcome with its Sat inputs and every cost field (or the
   exception it raised), and its deltas of [walk_counters]. *)
let observe_walk solve =
  let before = List.map total walk_counters in
  let result =
    match solve () with
    | (r : Ex.outcome * Ex.cost) -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  (result, List.map2 (fun c b -> total c - b) walk_counters before)

(* The states [rows] of inputs visit from the initial state, which
   included. *)
let visited_states ex rows =
  let rec go st acc = function
    | [] -> List.rev acc
    | row :: rest -> (
      match Exec.run_step ex st row with
      | _, st' -> go st' (st' :: acc) rest
      | exception (Exec.Eval_error _ | V.Type_error _) -> List.rev acc)
  in
  let st0 = Exec.initial_state ex in
  Array.of_list (go st0 [ st0 ] rows)

(* Every branch, every atom value and, per [If], one random condition
   vector (now and then of the wrong length). *)
let walk_objectives rng ex =
  Array.of_list
    (List.map (fun (b : Branch.t) -> Ex.Branch_target b.Branch.key) (Exec.branches ex)
    @ List.concat_map
        (fun (decision, d) ->
          match d with
          | `If cond ->
            let n = List.length (Ir.atoms_of_condition cond) in
            let n' = if Util.Splitmix.int rng 8 = 0 then n + 1 else n in
            Ex.Vector_target
              { decision; vector = Array.init n' (fun _ -> Util.Splitmix.int rng 2 = 0) }
            :: List.concat
                 (List.init n (fun atom ->
                      [
                        Ex.Condition_target { decision; atom; value = true };
                        Ex.Condition_target { decision; atom; value = false };
                      ]))
          | `Switch _ -> [])
        (Exec.decisions ex))

(* [n] solves of random objectives from random visited states, state-
   aware and (one in four) with symbolic state, through one memo per
   side; and two multi-step solves.  Budgets are small so that every
   way a search ends turns up. *)
let walk_agrees rng prog ~states ~n =
  let ex = Exec.handle prog in
  let objectives = walk_objectives rng ex in
  if Array.length objectives = 0 || Array.length states = 0 then true
  else begin
    let pick a = a.(Util.Splitmix.int rng (Array.length a)) in
    let config () =
      {
        Ex.max_paths = pick [| 2; 8; 32; 64 |];
        node_budget = pick [| 0; 60; 4_000 |];
        rng_seed = Util.Splitmix.int rng 100;
        hc4_memo = Util.Splitmix.int rng 8 > 0;
      }
    in
    let memo = Ex.create_memo () and ref_memo = Ref.create_memo () in
    let one_step =
      List.init n (fun _ ->
          let config = config () and symbolic_state = Util.Splitmix.int rng 4 = 0 in
          let state = pick states and target = pick objectives in
          ( (fun () -> Ex.solve_target ~config ~symbolic_state ~memo prog ~state ~target),
            fun () ->
              Ref.solve_target ~config ~symbolic_state ~memo:ref_memo prog ~state
                ~target ))
    in
    let branches = Array.of_list (Exec.branches ex) in
    let multi =
      List.init 2 (fun _ ->
          let config = { (config ()) with Ex.max_paths = 16 } in
          let horizon = 1 + Util.Splitmix.int rng 2 in
          let target = (pick branches).Branch.key in
          ( (fun () -> Ex.solve_branch_multi ~config prog ~horizon ~target),
            fun () -> Ref.solve_branch_multi ~config prog ~horizon ~target ))
    in
    List.for_all
      (fun (solve, reference) ->
        let got = observe_walk solve and want = observe_walk reference in
        compare got want = 0)
      (one_step @ multi)
  end

let prop_walk_reference =
  QCheck.Test.make ~name:"walk = reference walk (fuzz programs)" ~count:100
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Util.Splitmix.create seed in
      match
        Fuzzer.Gen.program_of
          (Fuzzer.Gen.gen_model rng ~size:(8 + Util.Splitmix.int rng 16))
      with
      | exception _ -> QCheck.assume_fail ()
      | prog ->
        let ex = Exec.handle prog in
        let rows =
          List.map (Exec.inputs_of_list ex) (Fuzzer.Gen.gen_inputs rng prog ~steps:4)
        in
        with_telemetry (fun () ->
            walk_agrees rng prog ~states:(visited_states ex rows) ~n:16))

let test_walk_reference () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 29 |]) prop_walk_reference

(* The registry models, real-typed ones (UTPC, AFC) among them, from
   states a few random steps visit. *)
let test_walk_reference_registry () =
  List.iteri
    (fun k (e : Models.Registry.entry) ->
      let prog = e.Models.Registry.program () in
      let ex = Exec.handle prog in
      let rs = Random.State.make [| 31; k |] in
      let rows = List.init 6 (fun _ -> Exec.random_inputs rs ex) in
      let rng = Util.Splitmix.create (97 + k) in
      with_telemetry (fun () ->
          check Alcotest.bool
            (Fmt.str "%s agrees" e.Models.Registry.name)
            true
            (walk_agrees rng prog ~states:(visited_states ex rows) ~n:24)))
    Models.Registry.entries

(* Solving across unrolled steps grows the variable list, which empties
   the memo: a box without the new step's variables cannot check its
   constraints. *)
let test_memo_cleared_by_new_vars () =
  with_telemetry (fun () ->
      let st = Exec.initial_state (Exec.handle multi_prog) in
      (match
         Ex.solve_branch_multi multi_prog ~horizon:4 ~target:(0, Branch.Then)
       with
       | Ex.Sat inputs, _ ->
         check Alcotest.bool "sequence hits target" true
           (hits multi_prog st inputs (0, Branch.Then))
       | (Ex.Unsat | Ex.Unknown), _ -> Alcotest.fail "multi-step should find it");
      check Alcotest.bool "the memo was cleared" true (total c_clears > 0))

(* Each solve from a new state constant [s] forks on two new windows
   ([x < s + 3], then [x > s && x < s + 3]), so 2,100 states make 4,200
   prefixes: one clear at the 4,096 cap, and every answer as before. *)
let window_prog =
  let open Ir in
  renumber_decisions
    {
      name = "windows";
      inputs = [ input "x" (V.tint_range (-100_000) 100_000) ];
      outputs = [ output "y" V.tint ];
      states = [ state "s" (V.tint_range 0 100_000) (V.Int 0) ];
      locals = [];
      body =
        [
          if_ (iv "x" >: sv "s")
            [ if_ (iv "x" <: sv "s" +: ci 3) [ assign_out "y" (ci 1) ] [] ]
            [];
        ];
    }

let test_memo_cap () =
  let ex = Exec.handle window_prog in
  let solves =
    List.init 2_100 (fun k ->
        ( Ex.default_config,
          false,
          Exec.state_of_list ex [ ("s", V.Int (7 * k)) ],
          Ex.Branch_target (1, Branch.Then) ))
  in
  with_telemetry (fun () ->
      let memo = Ex.create_memo () in
      let shared = List.map (observe ~memo window_prog) solves in
      check Alcotest.int "prefixes propagated" 4_200 (total c_misses);
      check Alcotest.int "one clear at the cap" 1 (total c_clears);
      let fresh = List.map (observe window_prog) solves in
      check Alcotest.int "fresh memos never clear" 1 (total c_clears);
      check Alcotest.bool "same answers" true (same_observations shared fresh);
      check Alcotest.bool "every solve is Sat" true
        (List.for_all
           (function Ok (Ex.Sat _, _), _, _ -> true | _ -> false)
           shared))

(* A search that ends by [Found] or by the path budget unwinds through
   its forks; the boxes it left in the memo still answer as new ones. *)
let test_memo_after_found_and_budget () =
  let open Ir in
  let prog =
    renumber_decisions
      {
        name = "forks";
        inputs =
          [
            input "a" (V.tint_range 0 100); input "b" (V.tint_range 0 100);
            input "c" (V.tint_range 0 100);
          ];
        outputs = [ output "y" V.tint ];
        states = [];
        locals = [ local "t" V.tint; local "u" V.tint ];
        body =
          [
            if_ (iv "a" >: ci 50) [ assign "t" (ci 1) ] [ assign "t" (ci 0) ];
            if_ (iv "b" >: ci 50) [ assign "u" (ci 1) ] [ assign "u" (ci 0) ];
            if_ (iv "c" >: lv "t" +: lv "u" +: ci 90)
              [ assign_out "y" (ci 1) ]
              [ assign_out "y" (ci 0) ];
          ];
      }
  in
  let st = Exec.initial_state (Exec.handle prog) in
  let solve ?(max_paths = Ex.default_config.Ex.max_paths) outcome =
    ( { Ex.default_config with Ex.max_paths },
      false,
      st,
      Ex.Branch_target (2, outcome) )
  in
  let solves =
    [ solve ~max_paths:1 Branch.Then; solve Branch.Then; solve Branch.Else ]
  in
  with_telemetry (fun () ->
      let memo = Ex.create_memo () in
      let shared =
        List.map
          (fun s ->
            let hits = total c_hits in
            let o = observe ~memo prog s in
            (o, total c_hits - hits))
          solves
      in
      let fresh = List.map (observe prog) solves in
      check Alcotest.bool "same answers" true
        (same_observations (List.map fst shared) fresh);
      match shared with
      | [
       ((Ok (Ex.Unknown, _), _, _), _);
       ((Ok (Ex.Sat _, _), _, _), after_budget);
       ((Ok (Ex.Sat _, _), _, _), after_found);
      ] ->
        check Alcotest.bool "hit after a path-budget stop" true
          (after_budget > 0);
        check Alcotest.bool "hit after a Found" true (after_found > 0)
      | _ -> Alcotest.fail "expected Unknown, Sat, Sat")

(* The same arm constraint can be feasible under one window and not
   under another: [a > 70] after [a <= 50] is pruned, after [a > 50] it
   is not, so the walk takes 6 paths and prunes 4 times (the unreachable
   target arm [a > 100] on each of the three paths that reach it, and
   [a > 70] once). *)
let test_arm_answers_per_window () =
  let open Ir in
  let prog =
    renumber_decisions
      {
        name = "arms";
        inputs = [ input "a" (V.tint_range 0 100) ];
        outputs = [ output "y" V.tint ];
        states = [];
        locals = [ local "t" V.tint ];
        body =
          [
            assign "t" (iv "a");
            if_ (iv "a" >: ci 50) [] [];
            if_ (iv "a" >: ci 70) [] [];
            if_ (lv "t" >: ci 100)
              [ assign_out "y" (ci 1) ]
              [ assign_out "y" (ci 0) ];
          ];
      }
  in
  let st = Exec.initial_state (Exec.handle prog) in
  with_telemetry (fun () ->
      match Ex.solve_branch prog ~state:st ~target:(2, Branch.Then) with
      | Ex.Unsat, cost ->
        check Alcotest.int "paths" 6 cost.Ex.paths_explored;
        check Alcotest.int "prunes" 4 (total c_prunes)
      | (Ex.Sat _ | Ex.Unknown), _ -> Alcotest.fail "a > 100 is unreachable")

let () =
  Alcotest.run "symexec"
    [
      ( "one-step",
        [
          Alcotest.test_case "simple then/else" `Quick test_simple_then_else;
          Alcotest.test_case "state constant" `Quick test_state_as_constant;
          Alcotest.test_case "nested target" `Quick test_nested_target;
          Alcotest.test_case "queue match" `Quick test_queue_match;
          Alcotest.test_case "queue empty unsat" `Quick test_queue_unsat_when_empty;
          Alcotest.test_case "state-only guard" `Quick test_state_only_guard_unsat;
          Alcotest.test_case "free decision" `Quick test_free_decision_before_target;
          Alcotest.test_case "switch cases" `Quick test_switch_targets;
          Alcotest.test_case "cost accounting" `Quick test_cost_accounting;
          Alcotest.test_case "unknown causes counted" `Quick
            test_unknown_causes_counted;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "unexplored errors harmless" `Quick
            test_unexplored_errors_harmless;
          Alcotest.test_case "unbound on explored arm" `Quick
            test_unbound_on_explored_arm;
          Alcotest.test_case "oob index on explored arm" `Quick
            test_oob_index_on_explored_arm;
          Alcotest.test_case "constant ite takes one arm" `Quick
            test_constant_ite_one_arm;
          Alcotest.test_case "unbound target guard" `Quick
            test_unbound_target_guard;
          Alcotest.test_case "stale seed" `Quick test_stale_seed;
          Alcotest.test_case "duplicate declarations" `Quick
            test_duplicate_declarations_last_wins;
          Alcotest.test_case "vector input reassembles" `Quick
            test_vector_input_reassembles;
          Alcotest.test_case "lowered once per program" `Quick
            test_lowered_once;
          Alcotest.test_case "undeclared write" `Quick test_undeclared_write;
        ] );
      ( "multi-step",
        [
          Alcotest.test_case "needs depth" `Quick test_multi_step_needed;
          Alcotest.test_case "horizon too short" `Quick test_multi_step_insufficient_horizon;
          Alcotest.test_case "state-aware shortcut" `Quick test_one_step_after_state_advance;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest [ prop_sat_implies_hit ] );
      ( "prefix memo",
        [
          Alcotest.test_case "shared = fresh (fuzz programs)" `Quick
            test_memo_differential;
          Alcotest.test_case "cleared by new variables" `Quick
            test_memo_cleared_by_new_vars;
          Alcotest.test_case "cleared at the cap" `Quick test_memo_cap;
          Alcotest.test_case "reused after Found and budget" `Quick
            test_memo_after_found_and_budget;
          Alcotest.test_case "arm answers per window" `Quick
            test_arm_answers_per_window;
        ] );
      ( "reference walk",
        [
          Alcotest.test_case "fuzz programs" `Quick test_walk_reference;
          Alcotest.test_case "registry models" `Quick
            test_walk_reference_registry;
        ] );
    ]
