let c_traces = Telemetry.Counter.make "spec.traces_evaluated"
let c_falsified = Telemetry.Counter.make "spec.falsifications"
let sp_search = Telemetry.Span.make "spec.search"

type result = {
  best_rob : float;
  falsified : bool;
  at_trace : int option;
  traces : int;
  best_params : float array;
}

let run_params plan vec =
  let exec = Signal.exec plan in
  let outs, _ =
    Slim.Exec.run_sequence exec (Slim.Exec.initial_state exec)
      (Signal.render plan vec)
  in
  Monitor.of_run exec outs

let witness_trace ~plan vec = run_params plan vec

let run ?(samples = 32) ?(descent = 64) ~plan ~seed formula =
  Telemetry.Span.with_ sp_search (fun () ->
      let rng = Util.Splitmix.create seed in
      let n = Signal.n_params plan in
      let traces = ref 0 in
      let best_rob = ref infinity in
      let best_params = ref (Array.make n 0.0) in
      let at_trace = ref None in
      let try_vec vec =
        incr traces;
        Telemetry.Counter.incr c_traces;
        let rob = Monitor.robustness (run_params plan vec) formula in
        if rob < !best_rob then begin
          best_rob := rob;
          best_params := vec
        end;
        if rob < 0.0 && !at_trace = None then begin
          at_trace := Some !traces;
          Telemetry.Counter.incr c_falsified
        end;
        rob
      in
      (* phase 1: seeded random sampling *)
      let i = ref 0 in
      while !i < samples && !at_trace = None do
        ignore (try_vec (Signal.random_params plan rng));
        incr i
      done;
      (* phase 2: coordinate descent from the best sample, shrinking the
         step on rejected proposals *)
      if !at_trace = None && n > 0 then begin
        let scale = ref 0.25 in
        let j = ref 0 in
        while !j < descent && !at_trace = None do
          let coord = Util.Splitmix.int rng n in
          let lo, hi = Signal.domain plan coord in
          let span = hi -. lo in
          let cand = Array.copy !best_params in
          let delta =
            Util.Splitmix.float_in rng (-. !scale *. span) (!scale *. span)
          in
          let v = cand.(coord) +. delta in
          cand.(coord) <- (if v < lo then lo else if v > hi then hi else v);
          let before = !best_rob in
          let rob = try_vec cand in
          if rob >= before then scale := Float.max 0.01 (!scale *. 0.9);
          incr j
        done
      end;
      {
        best_rob = !best_rob;
        falsified = !best_rob < 0.0;
        at_trace = !at_trace;
        traces = !traces;
        best_params = !best_params;
      })
