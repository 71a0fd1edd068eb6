(* Quickstart: build a tiny stateful model, run STCG on it, inspect the
   generated test cases, and replay them for an independent coverage
   measurement.

     dune exec examples/quickstart.exe

   The model is a bounded up/down counter with a latched alarm: the
   alarm branch only fires after the counter has been driven to its
   limit — a miniature version of the "deep internal state" problem the
   paper addresses. *)

module V = Slim.Value
module Ir = Slim.Ir

(* A model authored directly in the step-program IR:

   inputs:  up, down : bool
   state:   count : int [0,7];  alarm : bool
   output:  level : int; alarm_on : bool

   The alarm latches when the counter saturates at 7. *)
let counter_model =
  let open Ir in
  renumber_decisions
    {
      name = "updown";
      inputs = [ input "up" V.Tbool; input "down" V.Tbool ];
      outputs =
        [ output "level" (V.tint_range 0 7); output "alarm_on" V.Tbool ];
      states =
        [
          state "count" (V.tint_range 0 7) (V.Int 0);
          state "alarm" V.Tbool (V.Bool false);
        ];
      locals = [];
      body =
        [
          if_ (iv "up" &&: not_ (iv "down"))
            [
              if_ (sv "count" <: ci 7)
                [ assign_state "count" (sv "count" +: ci 1) ]
                [ assign_state "alarm" (cb true) ];
            ]
            [
              if_ (iv "down" &&: not_ (iv "up"))
                [
                  if_ (sv "count" >: ci 0)
                    [ assign_state "count" (sv "count" -: ci 1) ]
                    [];
                ]
                [];
            ];
          assign_out "level" (sv "count");
          assign_out "alarm_on" (sv "alarm");
        ];
    }

let () =
  Fmt.pr "== STCG quickstart ==@.@.";
  let exec = Slim.Exec.handle counter_model in
  Fmt.pr "Model: %d branches, %d decisions@." (Slim.Exec.n_branches exec)
    (Slim.Exec.n_decisions exec);

  (* run the STCG engine with a small virtual budget *)
  let config =
    { Stcg.Engine.default_config with Stcg.Engine.seed = 42; budget = 600.0 }
  in
  let run = Stcg.Engine.run ~config counter_model in

  Fmt.pr "@.Coverage: %a@." Coverage.Tracker.pp_summary
    run.Stcg.Engine.r_tracker;
  Fmt.pr "States explored: %d; virtual time: %.1fs@."
    (Stcg.State_tree.size run.Stcg.Engine.r_tree)
    (Stcg.Vclock.now run.Stcg.Engine.r_clock);

  (* show the generated test cases (steps are slot arrays; the compiled
     handle maps slots back to input names for printing) *)
  Fmt.pr "@.Test cases (inputs per step):@.";
  List.iter
    (fun (tc : Stcg.Testcase.t) ->
      Fmt.pr "  %a@." Stcg.Testcase.pp tc;
      List.iteri
        (fun i step ->
          Fmt.pr "    step %d: %a@." i (Slim.Exec.pp_inputs exec) step)
        tc.Stcg.Testcase.steps)
    run.Stcg.Engine.r_testcases;

  (* independent replay, the "Signal Builder" check *)
  let replay =
    Stcg.Testcase.replay_suite counter_model run.Stcg.Engine.r_testcases
  in
  Fmt.pr "@.Replay of the exported suite: %a@." Coverage.Tracker.pp_summary
    replay;

  (* the text export format round-trips *)
  let text = Stcg.Testcase.to_text counter_model run.Stcg.Engine.r_testcases in
  Fmt.pr "@.Exported suite (text format):@.%s@." text
