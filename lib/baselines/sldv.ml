module Exec = Slim.Exec
module Branch = Slim.Branch
module Tracker = Coverage.Tracker
module Explore = Symexec.Explore
module Vclock = Stcg.Vclock
module Testcase = Stcg.Testcase

type config = {
  budget : float;
  horizons : int list;
  solver : Explore.config;
}

let default_config =
  {
    budget = 3600.0;
    horizons = [ 1; 2; 4; 8 ];
    solver =
      { Explore.default_config with Explore.max_paths = 1200; node_budget = 4_000 };
  }

let run ?(config = default_config) ~model (prog : Slim.Ir.program) =
  let ex = Exec.handle prog in
  let tracker = Tracker.create prog in
  let clock = Vclock.create ~budget:config.budget in
  let branches = Branch.sort_by_depth (Exec.branches ex) in
  let testcases = ref [] in
  let timeline = ref [] in
  let next_tc = ref 0 in
  let decision_total = (Tracker.decision tracker).Tracker.total in
  let record_timeline () =
    let covered = (Tracker.decision tracker).Tracker.covered in
    let pct =
      if decision_total = 0 then 100.0
      else 100.0 *. float covered /. float decision_total
    in
    timeline := (Vclock.now clock, pct) :: !timeline
  in
  let execute_testcase inputs =
    let m = Tracker.mark tracker in
    let _, _ =
      Exec.run_sequence ~on_event:(Tracker.observe tracker) ex
        (Exec.initial_state ex) inputs
    in
    Vclock.charge_steps clock (List.length inputs);
    let fresh = Tracker.fresh_since tracker m in
    if not (Branch.Key_set.is_empty fresh) then begin
      let tc =
        {
          Testcase.tc_id = !next_tc;
          steps = inputs;
          origin = Testcase.Solved;
          found_at = Vclock.now clock;
          new_branches = Branch.Key_set.elements fresh;
        }
      in
      incr next_tc;
      testcases := tc :: !testcases;
      record_timeline ()
    end
  in
  (* Iterative deepening over unroll horizons: each pass attacks every
     still-uncovered branch with a whole-trace query. *)
  let attempted = Hashtbl.create 256 in
  List.iter
    (fun horizon ->
      List.iter
        (fun (b : Branch.t) ->
          if
            (not (Vclock.expired clock))
            && (not (Tracker.is_branch_covered tracker b.key))
            && not (Hashtbl.mem attempted (horizon, b.key))
          then begin
            Hashtbl.replace attempted (horizon, b.key) ();
            let outcome, cost =
              Explore.solve_branch_multi ~config:config.solver prog ~horizon
                ~target:b.key
            in
            Vclock.charge_solve clock cost;
            (* whole-trace queries pay per unrolled step: constraint
               construction and solving grow with the horizon *)
            Vclock.charge clock
              (Vclock.cost_solve_episode *. float_of_int (horizon - 1));
            match outcome with
            | Explore.Sat inputs -> execute_testcase inputs
            | Explore.Unsat | Explore.Unknown -> ()
          end)
        branches)
    config.horizons;
  {
    Stcg.Run_result.tool = "SLDV";
    model;
    tracker;
    testcases = List.rev !testcases;
    timeline = List.rev !timeline;
    markers =
      List.rev_map
        (fun (tc : Testcase.t) -> (tc.Testcase.found_at, tc.Testcase.origin))
        !testcases;
    final_time = Vclock.now clock;
  }
