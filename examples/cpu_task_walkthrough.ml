(* The paper's running example (Section III-C): watch STCG build the
   state tree for the CPUTask model.

     dune exec examples/cpu_task_walkthrough.exe

   Reproduces the narrative of the paper's Table I: shallow opcode
   branches solve immediately from the root state; delete/modify/check
   "success" branches only solve on states where an Add happened
   earlier; the queue-full branch falls to a random sequence of
   previously solved inputs. *)

module Engine = Stcg.Engine
module Tracker = Coverage.Tracker

let () =
  let entry = Option.get (Models.Registry.find "CPUTask") in
  let prog = entry.Models.Registry.program () in
  Fmt.pr "== CPUTask walkthrough (paper Section III-C / Table I) ==@.@.";
  let exec = Slim.Exec.handle prog in
  Fmt.pr "branches: %d, decisions: %d@.@." (Slim.Exec.n_branches exec)
    (Slim.Exec.n_decisions exec);

  let config = { Engine.default_config with Engine.seed = 1; budget = 3600.0 } in
  let run = Engine.run ~config prog in

  (* narrate the event log, paper-Table-I style *)
  let covered = ref 0 in
  let total = (Tracker.decision run.Engine.r_tracker).Tracker.total in
  let step = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | Engine.Ev_solve { target; node; result = `Sat; time } ->
        incr step;
        Fmt.pr "step %3d  t=%6.1fs  solved %a on S%d@." !step time
          Symexec.Explore.pp_target target node
      | Engine.Ev_solve _ -> ()
      | Engine.Ev_random_exec { node; len; time } ->
        incr step;
        Fmt.pr "step %3d  t=%6.1fs  random sequence (%d inputs) from S%d@."
          !step time len node
      | Engine.Ev_coverage { decision_covered; time } ->
        if decision_covered > !covered then begin
          Fmt.pr "          t=%6.1fs  coverage %d/%d branches@." time
            decision_covered total;
          covered := decision_covered
        end
      | Engine.Ev_testcase tc ->
        Fmt.pr "          >> test case #%d (%a, %d steps)@."
          tc.Stcg.Testcase.tc_id Stcg.Testcase.pp_origin
          tc.Stcg.Testcase.origin
          (Stcg.Testcase.length tc))
    run.Engine.r_events;

  Fmt.pr "@.final: %a@." Tracker.pp_summary run.Engine.r_tracker;
  Fmt.pr "state tree: %d nodes (%d distinct states)@."
    (Stcg.State_tree.size run.Engine.r_tree)
    (Stcg.State_tree.distinct_states run.Engine.r_tree);
  Fmt.pr "test cases: %d (%d from solving, %d from random execution)@."
    (List.length run.Engine.r_testcases)
    (List.length
       (List.filter
          (fun (tc : Stcg.Testcase.t) -> tc.Stcg.Testcase.origin = Stcg.Testcase.Solved)
          run.Engine.r_testcases))
    (List.length
       (List.filter
          (fun (tc : Stcg.Testcase.t) ->
            tc.Stcg.Testcase.origin = Stcg.Testcase.Random_exec)
          run.Engine.r_testcases))
