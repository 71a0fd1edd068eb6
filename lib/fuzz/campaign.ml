open Slim

type failure = {
  f_case : int;
  f_oracle : string;
  f_message : string;
  f_orig_size : int;
  f_size : int;
  f_steps : int;
  f_rounds : int;
  f_checks : int;
  f_repro : string;
}

type case = {
  c_index : int;
  c_chart : bool;
  c_blocks : int;
  c_steps : int;
  c_decisions : int;
  c_verdicts : (string * Oracle.verdict) list;
}

type summary = {
  s_seed : int;
  s_count : int;
  s_max_steps : int;
  s_oracles : string list;
  s_cases : case list;
  s_charts : int;
  s_diagrams : int;
  s_steps_total : int;
  s_blocks_total : int;
  s_decisions_total : int;
  s_oracle_runs : (string * int) list;
  s_failures : failure list;
}

let case_seed ~seed i =
  (* one create + one draw = two rounds of the SplitMix finalizer over
     an injective (seed, i) combination — independent per-case streams *)
  let g = Util.Splitmix.create (seed lxor (i * 0x9E3779B1)) in
  Int64.to_int (Int64.shift_right_logical (Util.Splitmix.bits64 g) 2)

let is_chart = function Gen.M_chart _ -> true | Gen.M_diagram _ -> false

(* [Gen.size_of] compiles diagrams; on a build-failure case fall back
   to the raw node count so reporting itself cannot raise. *)
let safe_size m =
  match Gen.size_of m with
  | n -> n
  | exception _ -> (
    match m with
    | Gen.M_diagram s -> Array.length s.Gen.sp_nodes
    | Gen.M_chart c -> Array.length c.Gen.ch_states + List.length c.Gen.ch_trans)

let shrunk_failure ~shrink_checks ~still_fails ~index ~oracle ~message model
    inputs =
  let o = Shrink.minimize ~max_checks:shrink_checks ~still_fails model inputs in
  {
    f_case = index;
    f_oracle = oracle;
    f_message = message;
    f_orig_size = safe_size model;
    f_size = safe_size o.Shrink.r_model;
    f_steps = List.length o.Shrink.r_inputs;
    f_rounds = o.Shrink.r_rounds;
    f_checks = o.Shrink.r_checks;
    f_repro = Fmt.str "%a" Gen.pp_repro (o.Shrink.r_model, o.Shrink.r_inputs);
  }

let case_gen ~seed ~max_steps i =
  let cs = case_seed ~seed i in
  let rng = Util.Splitmix.create cs in
  let model_rng = Util.Splitmix.split rng in
  let input_rng = Util.Splitmix.split rng in
  let size = 8 + Util.Splitmix.int rng 16 in
  let steps = 1 + Util.Splitmix.int rng (max 1 max_steps) in
  let model = Gen.gen_model model_rng ~size in
  (* copy the input stream so the thunk replays identically however
     often it is called (corpus export re-derives the same inputs) *)
  ( model,
    steps,
    fun prog -> Gen.gen_inputs (Util.Splitmix.copy input_rng) prog ~steps )

let tel_cases = Telemetry.Counter.make "fuzz.cases"
let tel_failures = Telemetry.Counter.make "fuzz.failures"
let tel_sp_case = Telemetry.Span.make "fuzz.case"

let run_case ?(oracles = Oracle.all) ?(shrink_checks = 400) ~seed ~max_steps i =
  Telemetry.Counter.incr tel_cases;
  Telemetry.Span.with_ tel_sp_case ~note:(fun () -> string_of_int i)
  @@ fun () ->
  let cs = case_seed ~seed i in
  let model, steps, gen_inputs = case_gen ~seed ~max_steps i in
  match Gen.program_of model with
  | exception exn ->
    (* the generator promises well-typed models: a compile failure is a
       fuzzer-caught bug in its own right *)
    let message = Printexc.to_string exn in
    let still_fails m _ =
      match Gen.program_of m with exception _ -> true | _ -> false
    in
    let case =
      {
        c_index = i;
        c_chart = is_chart model;
        c_blocks = safe_size model;
        c_steps = 0;
        c_decisions = 0;
        c_verdicts = [ ("build", Oracle.Fail message) ];
      }
    in
    ( case,
      Some
        (shrunk_failure ~shrink_checks ~still_fails ~index:i ~oracle:"build"
           ~message model []) )
  | prog ->
    let inputs = gen_inputs prog in
    let verdicts = Oracle.run ~which:oracles ~seed:cs prog inputs in
    let ex = Exec.handle prog in
    let case =
      {
        c_index = i;
        c_chart = is_chart model;
        c_blocks = safe_size model;
        c_steps = steps;
        c_decisions = List.length (Exec.decisions ex);
        c_verdicts = verdicts;
      }
    in
    (match
       List.find_opt (fun (_, v) -> v <> Oracle.Pass) verdicts
     with
    | None -> (case, None)
    | Some (oname, v) ->
      let message = match v with Oracle.Fail m -> m | Oracle.Pass -> "" in
      let still_fails m ins =
        match Gen.program_of m with
        | exception _ -> true
        | prog' -> (
          match Oracle.run ~which:[ oname ] ~seed:cs prog' ins with
          | [ (_, Oracle.Fail _) ] -> true
          | _ -> false)
      in
      ( case,
        Some
          (shrunk_failure ~shrink_checks ~still_fails ~index:i ~oracle:oname
             ~message model inputs) ))

let run ?(oracles = Oracle.all) ?(jobs = 1) ?(chunk = 8) ?shrink_checks ~seed
    ~count ~max_steps () =
  let which = List.filter (fun o -> List.mem o oracles) Oracle.all in
  let idxs = List.init (max 0 count) Fun.id in
  let f i = run_case ~oracles:which ?shrink_checks ~seed ~max_steps i in
  let results =
    if jobs <= 1 then List.map f idxs
    else
      Harness.Pool.with_pool ~jobs (fun p ->
          Harness.Pool.map_chunked p ~chunk f idxs)
  in
  let cases = List.map fst results in
  let fails = List.filter_map snd results in
  Telemetry.Counter.add tel_failures (List.length fails);
  let count_if p = List.length (List.filter p cases) in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 cases in
  {
    s_seed = seed;
    s_count = count;
    s_max_steps = max_steps;
    s_oracles = which;
    s_cases = cases;
    s_charts = count_if (fun c -> c.c_chart);
    s_diagrams = count_if (fun c -> not c.c_chart);
    s_steps_total = sum (fun c -> c.c_steps);
    s_blocks_total = sum (fun c -> c.c_blocks);
    s_decisions_total = sum (fun c -> c.c_decisions);
    s_oracle_runs =
      List.map
        (fun o -> (o, count_if (fun c -> List.mem_assoc o c.c_verdicts)))
        which;
    s_failures = fails;
  }

let failures s = List.length s.s_failures

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let oracle_failures s o =
  List.length (List.filter (fun f -> f.f_oracle = o) s.s_failures)

let pp_failure ppf f =
  Fmt.pf ppf
    "@[<v>case %d [%s]: %s@,\
     shrunk %d -> %d blocks, %d steps (%d rounds, %d checks)@,\
     reproducer:@,%s@]"
    f.f_case f.f_oracle f.f_message f.f_orig_size f.f_size f.f_steps f.f_rounds
    f.f_checks f.f_repro

let pp_summary ppf s =
  Fmt.pf ppf
    "@[<v>fuzz campaign: seed=%d count=%d max-steps=%d oracles=%s@,\
     cases: %d diagrams, %d charts | %d blocks, %d steps, %d decisions@,"
    s.s_seed s.s_count s.s_max_steps
    (String.concat "," s.s_oracles)
    s.s_diagrams s.s_charts s.s_blocks_total s.s_steps_total
    s.s_decisions_total;
  List.iter
    (fun (o, runs) ->
      Fmt.pf ppf "  %-9s %4d cases  %d failures@," o runs
        (oracle_failures s o))
    s.s_oracle_runs;
  let builds = oracle_failures s "build" in
  if builds > 0 then Fmt.pf ppf "  %-9s %4d failures@," "build" builds;
  if s.s_failures = [] then Fmt.pf ppf "result: PASS@]"
  else
    Fmt.pf ppf "result: FAIL (%d failing cases)@,%a@]"
      (List.length s.s_failures)
      (Fmt.list ~sep:Fmt.cut pp_failure)
      s.s_failures

let to_json ?telemetry s =
  let module J = Util.Json in
  let str x = J.String x in
  let failure f =
    J.Obj
      [
        ("case", J.Int f.f_case); ("oracle", str f.f_oracle);
        ("message", str f.f_message); ("orig_size", J.Int f.f_orig_size);
        ("size", J.Int f.f_size); ("steps", J.Int f.f_steps);
        ("rounds", J.Int f.f_rounds); ("checks", J.Int f.f_checks);
        ("repro", str f.f_repro);
      ]
  in
  J.to_string
    (J.Obj
       ([
          ("seed", J.Int s.s_seed); ("count", J.Int s.s_count);
          ("max_steps", J.Int s.s_max_steps);
          ("oracles", J.List (List.map str s.s_oracles));
          ("diagrams", J.Int s.s_diagrams); ("charts", J.Int s.s_charts);
          ("blocks", J.Int s.s_blocks_total); ("steps", J.Int s.s_steps_total);
          ("decisions", J.Int s.s_decisions_total);
          ( "oracle_runs",
            J.Obj
              (List.map
                 (fun (o, runs) ->
                   ( o,
                     J.Obj
                       [
                         ("cases", J.Int runs);
                         ("failures", J.Int (oracle_failures s o));
                       ] ))
                 s.s_oracle_runs) );
          ("failures", J.List (List.map failure s.s_failures));
        ]
       @ (match telemetry with Some t -> [ ("telemetry", t) ] | None -> [])
       @ [ ("pass", J.Bool (s.s_failures = [])) ]))
