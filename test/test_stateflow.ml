(* Tests for the Stateflow-like chart language and its compiler. *)

module V = Slim.Value
module Ir = Slim.Ir
module Exec = Slim.Exec
module C = Stateflow.Chart
module SF = Stateflow.Sf_compile

let check = Alcotest.check
let vi i = V.Int i
let vb b = V.Bool b
let value_testable = Alcotest.testable V.pp V.equal

(* A pedestrian-light chart: Red -> Green on [go], Green -> Yellow after 3
   ticks, Yellow -> Red immediately next step.  Output [walk] is true in
   Green. *)
let light_chart () =
  let open Ir in
  C.chart ~name:"light"
    ~inputs:[ input "go" V.Tbool ]
    ~outputs:[ output "walk" V.Tbool; output "phase" (V.tint_range 0 2) ]
    ~data:[ state "ticks" (V.tint_range 0 10) (V.Int 0) ]
    (C.region ~initial:"Red"
       ~transitions:
         [
           C.trans ~guard:(iv "go") "Red" "Green";
           C.trans ~guard:(sv "ticks" >=: ci 3) "Green" "Yellow";
           C.trans "Yellow" "Red";
         ]
       [
         C.state "Red"
           ~entry:[ assign_out "walk" (cb false); assign_out "phase" (ci 0) ];
         C.state "Green"
           ~entry:
             [
               assign_state "ticks" (ci 0);
               assign_out "walk" (cb true);
               assign_out "phase" (ci 1);
             ]
           ~during:[ assign_state "ticks" (sv "ticks" +: ci 1) ];
         C.state "Yellow"
           ~entry:[ assign_out "walk" (cb false); assign_out "phase" (ci 2) ];
       ])

let init prog = Exec.initial_state (Exec.handle prog)

(* One step through the chart program's handle; the outputs come back
   with the handle, for [out_value] to look them up by name. *)
let run_chart prog st ins =
  let ex = Exec.handle prog in
  let out, st' = Exec.run_step ex st (Exec.inputs_of_list ex ins) in
  ((ex, out), st')

let out_value (ex, out) name = Exec.find_output ex out name
let state prog st name = Exec.find_state (Exec.handle prog) st name

let test_light_progression () =
  let prog = SF.to_program (light_chart ()) in
  let st = ref (init prog) in
  let step go =
    let out, st' = run_chart prog !st [ ("go", vb go) ] in
    st := st';
    ( out_value out "phase" |> V.to_int,
      out_value out "walk" |> V.to_bool )
  in
  (* stays Red without go *)
  check Alcotest.(pair int bool) "stays red" (0, false) (step false);
  (* go -> Green (entry actions fire on the transition step) *)
  check Alcotest.(pair int bool) "turns green" (1, true) (step true);
  (* three during-ticks before the guard ticks>=3 fires *)
  check Alcotest.(pair int bool) "green 1" (1, true) (step false);
  check Alcotest.(pair int bool) "green 2" (1, true) (step false);
  check Alcotest.(pair int bool) "green 3" (1, true) (step false);
  check Alcotest.(pair int bool) "yellow" (2, false) (step false);
  check Alcotest.(pair int bool) "back to red" (0, false) (step false)

let test_output_persistence () =
  (* Outputs hold their value on steps where no action assigns them. *)
  let prog = SF.to_program (light_chart ()) in
  let st0 = init prog in
  let out1, st1 = run_chart prog st0 [ ("go", vb true) ] in
  check value_testable "walk set on entry" (vb true)
    (out_value out1 "walk");
  let out2, _ = run_chart prog st1 [ ("go", vb false) ] in
  check value_testable "walk persists without assignment" (vb true)
    (out_value out2 "walk")

let test_location_in_snapshot () =
  let prog = SF.to_program (light_chart ()) in
  let st0 = init prog in
  check value_testable "initial location is Red" (vi 0)
    (state prog st0 "loc");
  let _, st1 = run_chart prog st0 [ ("go", vb true) ] in
  check value_testable "location moved to Green" (vi 1)
    (state prog st1 "loc")

(* Hierarchical chart: Off / On, where On has child region {Low, High}.
   Entering On always resets the child to Low. *)
let hier_chart () =
  let open Ir in
  C.chart ~name:"hier"
    ~inputs:[ input "power" V.Tbool; input "boost" V.Tbool ]
    ~outputs:[ output "level" (V.tint_range 0 2) ]
    (C.region ~initial:"Off"
       ~transitions:
         [
           C.trans ~guard:(iv "power") "Off" "On";
           C.trans ~guard:(not_ (iv "power")) "On" "Off";
         ]
       [
         C.state "Off" ~entry:[ assign_out "level" (ci 0) ];
         C.state "On"
           ~children:
             (C.region ~initial:"Low"
                ~transitions:
                  [
                    C.trans ~guard:(iv "boost") "Low" "High";
                    C.trans ~guard:(not_ (iv "boost")) "High" "Low";
                  ]
                [
                  C.state "Low" ~entry:[ assign_out "level" (ci 1) ];
                  C.state "High" ~entry:[ assign_out "level" (ci 2) ];
                ]);
       ])

let test_hierarchy_reset_on_entry () =
  let prog = SF.to_program (hier_chart ()) in
  let st = ref (init prog) in
  let step power boost =
    let out, st' =
      run_chart prog !st [ ("power", vb power); ("boost", vb boost) ]
    in
    st := st';
    V.to_int (out_value out "level")
  in
  check Alcotest.int "off" 0 (step false false);
  check Alcotest.int "on enters Low" 1 (step true false);
  check Alcotest.int "boost to High" 2 (step true true);
  check Alcotest.int "power off" 0 (step false false);
  (* re-entry must reset child region to Low, not resume in High *)
  check Alcotest.int "re-entry resets to Low" 1 (step true false)

let test_chart_fragment_in_diagram () =
  (* Embed the light chart in a block diagram via Builder.chart. *)
  let frag = SF.compile (light_chart ()) in
  let b = Slim.Builder.create "wrapper" in
  let go = Slim.Builder.inport b "go" V.Tbool in
  (match Slim.Builder.chart b frag [ go ] with
   | [ walk; phase ] ->
     Slim.Builder.outport b "walk" walk;
     Slim.Builder.outport b "phase" phase
   | _ -> Alcotest.fail "expected two chart outputs");
  let prog = Slim.Compile.to_program (Slim.Builder.finish b) in
  let st0 = init prog in
  let out, _ = run_chart prog st0 [ ("go", vb true) ] in
  check value_testable "chart works inside a diagram" (vi 1)
    (out_value out "phase")

let test_validate_errors () =
  let bad_initial =
    C.chart ~name:"bad" (C.region ~initial:"Nope" [ C.state "A" ])
  in
  (match C.validate bad_initial with
   | () -> Alcotest.fail "expected Invalid_chart"
   | exception C.Invalid_chart _ -> ());
  let bad_transition =
    C.chart ~name:"bad2"
      (C.region ~initial:"A"
         ~transitions:[ C.trans "A" "Missing" ]
         [ C.state "A" ])
  in
  (match C.validate bad_transition with
   | () -> Alcotest.fail "expected Invalid_chart"
   | exception C.Invalid_chart _ -> ());
  let dup =
    C.chart ~name:"dup" (C.region ~initial:"A" [ C.state "A"; C.state "A" ])
  in
  (match C.validate dup with
   | () -> Alcotest.fail "expected Invalid_chart"
   | exception C.Invalid_chart _ -> ())

let test_transition_priority () =
  (* Two enabled transitions: the first in list order must win. *)
  let open Ir in
  let c =
    C.chart ~name:"prio"
      ~inputs:[ input "x" V.tint ]
      ~outputs:[ output "which" (V.tint_range 0 2) ]
      (C.region ~initial:"S"
         ~transitions:
           [
             C.trans ~guard:(iv "x" >: ci 0) "S" "A";
             C.trans ~guard:(iv "x" >: ci (-10)) "S" "B";
           ]
         [
           C.state "S";
           C.state "A" ~entry:[ assign_out "which" (ci 1) ];
           C.state "B" ~entry:[ assign_out "which" (ci 2) ];
         ])
  in
  let prog = SF.to_program c in
  let st0 = init prog in
  let out, _ = run_chart prog st0 [ ("x", vi 5) ] in
  check value_testable "first transition wins" (vi 1)
    (out_value out "which")

let test_exit_actions_depth_first () =
  (* Exiting a composite state runs child exits before its own. *)
  let open Ir in
  let c =
    C.chart ~name:"exits"
      ~inputs:[ input "quit" V.Tbool ]
      ~outputs:[ output "trace" (V.tint_range 0 100) ]
      ~data:[ state "acc" (V.tint_range 0 100) (V.Int 0) ]
      (C.region ~initial:"Outer"
         ~transitions:[ C.trans ~guard:(iv "quit") "Outer" "Done" ]
         [
           C.state "Outer"
             ~exit:[ assign_state "acc" (sv "acc" *: ci 10) ]
             ~children:
               (C.region ~initial:"Inner"
                  [ C.state "Inner" ~exit:[ assign_state "acc" (sv "acc" +: ci 3) ] ]);
           C.state "Done" ~entry:[ assign_out "trace" (sv "acc") ];
         ])
  in
  let prog = SF.to_program c in
  let st0 = init prog in
  let _, st1 = run_chart prog st0 [ ("quit", vb false) ] in
  let out, _ = run_chart prog st1 [ ("quit", vb true) ] in
  (* child exit first: (0 + 3) * 10 = 30; parent-first would give 3 *)
  check value_testable "child exit runs before parent" (vi 30)
    (out_value out "trace")

let () =
  Alcotest.run "stateflow"
    [
      ( "flat",
        [
          Alcotest.test_case "light progression" `Quick test_light_progression;
          Alcotest.test_case "output persistence" `Quick test_output_persistence;
          Alcotest.test_case "location in snapshot" `Quick test_location_in_snapshot;
          Alcotest.test_case "transition priority" `Quick test_transition_priority;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "reset on entry" `Quick test_hierarchy_reset_on_entry;
          Alcotest.test_case "exit order" `Quick test_exit_actions_depth_first;
        ] );
      ( "integration",
        [
          Alcotest.test_case "fragment in diagram" `Quick test_chart_fragment_in_diagram;
          Alcotest.test_case "validation" `Quick test_validate_errors;
        ] );
    ]
