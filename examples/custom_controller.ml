(* Authoring your own model with the block-diagram builder and a chart,
   then generating tests for it.

     dune exec examples/custom_controller.exe

   The model is a small tank-level controller: a fill valve driven by a
   mode chart (Idle / Filling / Draining / Fault), a level integrator,
   and a stuck-sensor interlock that needs a specific two-step input
   pattern — the kind of branch a random tester rarely hits. *)

module V = Slim.Value
module Ir = Slim.Ir
module B = Slim.Builder
module C = Stateflow.Chart

let mode_chart =
  let open Ir in
  C.chart ~name:"tank_mode"
    ~inputs:
      [
        input "start" V.Tbool;
        input "stop" V.Tbool;
        input "level_high" V.Tbool;
        input "level_low" V.Tbool;
        input "sensor_stuck" V.Tbool;
      ]
    ~outputs:[ output "mode" (V.tint_range 0 3) ]
    (C.region ~initial:"Idle"
       ~transitions:
         [
           C.trans ~guard:(iv "sensor_stuck") "Idle" "Fault";
           C.trans ~guard:(iv "start" &&: not_ (iv "level_high")) "Idle"
             "Filling";
           C.trans ~guard:(iv "sensor_stuck") "Filling" "Fault";
           C.trans ~guard:(iv "level_high" ||: iv "stop") "Filling" "Draining";
           C.trans ~guard:(iv "sensor_stuck") "Draining" "Fault";
           C.trans ~guard:(iv "level_low") "Draining" "Idle";
         ]
       [
         C.state "Idle" ~entry:[ assign_out "mode" (ci 0) ];
         C.state "Filling" ~entry:[ assign_out "mode" (ci 1) ];
         C.state "Draining" ~entry:[ assign_out "mode" (ci 2) ];
         C.state "Fault" ~entry:[ assign_out "mode" (ci 3) ];
       ])

let model () =
  let b = B.create "tank" in
  let start = B.inport b "start" V.Tbool in
  let stop = B.inport b "stop" V.Tbool in
  let sensor = B.inport b "sensor" (V.treal_range 0.0 10.0) in
  (* level model: fills at 0.5/step in Filling, drains at 0.8/step *)
  let level = B.ds_read b "level" in
  B.data_store b "level" (V.treal_range 0.0 10.0) (V.Real 2.0);
  let level_high = B.compare_const b Ir.Gt 8.0 level in
  let level_low = B.compare_const b Ir.Lt 1.0 level in
  (* stuck sensor: reading differs from modeled level two steps running *)
  let err = B.abs_ b (B.diff b sensor level) in
  let big_err = B.compare_const b Ir.Gt 3.0 err in
  let big_err_prev = B.unit_delay b (V.Bool false) big_err in
  let stuck = B.and_ b [ big_err; big_err_prev ] in
  let mode =
    match
      B.chart b
        (Stateflow.Sf_compile.compile mode_chart)
        [ start; stop; level_high; level_low; stuck ]
    with
    | [ m ] -> m
    | _ -> assert false
  in
  B.outport b "mode" mode;
  let filling = B.compare_const b Ir.Eq 1.0 mode in
  let draining = B.compare_const b Ir.Eq 2.0 mode in
  let delta_fill =
    B.switch b ~data1:(B.const_r b 0.5) ~control:filling
      ~data2:(B.const_r b 0.0) ()
  in
  let delta_drain =
    B.switch b ~data1:(B.const_r b (-0.8)) ~control:draining
      ~data2:(B.const_r b 0.0) ()
  in
  let level' =
    B.saturation b ~lower:0.0 ~upper:10.0
      (B.sum b [ level; delta_fill; delta_drain ])
  in
  B.ds_write b "level" level';
  B.outport b "level" level';
  B.finish b

let () =
  Fmt.pr "== custom controller example ==@.@.";
  let m = model () in
  Fmt.pr "diagram: %d blocks@." (Slim.Model.block_count m);
  let prog = Slim.Compile.to_program m in
  let exec = Slim.Exec.handle prog in
  Fmt.pr "compiled: %d branches, %d statements@.@." (Slim.Exec.n_branches exec)
    (Slim.Ir.stmt_count prog);

  (* simulate a few steps by hand first *)
  let st = ref (Slim.Exec.initial_state exec) in
  let step start stop sensor =
    let out, st' =
      Slim.Exec.run_step exec !st
        (Slim.Exec.inputs_of_list exec
           [
             ("start", V.Bool start); ("stop", V.Bool stop);
             ("sensor", V.Real sensor);
           ])
    in
    st := st';
    Fmt.pr "  mode=%a level=%a@." Slim.Value.pp
      (Slim.Exec.find_output exec out "mode")
      Slim.Value.pp
      (Slim.Exec.find_output exec out "level")
  in
  Fmt.pr "manual simulation:@.";
  step true false 2.0;
  step false false 2.5;
  step false false 3.0;

  (* now let STCG cover it *)
  let config =
    { Stcg.Engine.default_config with Stcg.Engine.seed = 7; budget = 1800.0 }
  in
  let run = Stcg.Engine.run ~config prog in
  Fmt.pr "@.STCG: %a@." Coverage.Tracker.pp_summary run.Stcg.Engine.r_tracker;
  Fmt.pr "test cases: %d@." (List.length run.Stcg.Engine.r_testcases);
  (* which branches stayed uncovered, if any? *)
  match Coverage.Tracker.uncovered_branches run.Stcg.Engine.r_tracker with
  | [] -> Fmt.pr "every branch covered.@."
  | uncovered ->
    Fmt.pr "uncovered branches:@.";
    List.iter (fun b -> Fmt.pr "  %a@." Slim.Branch.pp b) uncovered
