(* Corpus campaigns over directories of .stcg files.

   [run] discovers every model in a directory, runs the selected tool
   on each (in parallel on a {!Harness.Pool}), and persists one
   self-describing JSON result file per model.  On re-invocation,
   models whose result file matches the campaign configuration (tool,
   budget, seed) are loaded instead of re-run, so an interrupted
   campaign resumes where it stopped.  The summary is a pure function
   of the per-model outcomes — {!Util.Json} floats round-trip exactly —
   so a resumed campaign renders byte-identical output to an
   uninterrupted one. *)

module E = Harness.Experiment

type result = {
  kind : string;
  branches : int;
  decision : float;
  condition : float;
  mcdc : float;
  tests : int;
}

type outcome = {
  o_model : string;
  o_file : string;
  o_cached : bool;
  o_result : (result, Syntax.error) Stdlib.result;
}

type t = {
  outcomes : outcome list;  (** one per [.stcg] file, sorted by model name *)
  summary : string;
  executed : int;
  cached : int;
  failed : int;
}

let discover dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".stcg")
  |> List.sort compare
  |> List.map (fun f ->
         (Filename.chop_suffix f ".stcg", Filename.concat dir f))

(* --- the per-model result store ----------------------------------------- *)

module J = Util.Json

let result_line ~tool ~budget ~seed model r =
  J.to_string
    (J.Obj
       [
         ("stcg-campaign-result", J.Int 1); ("model", J.String model);
         ("tool", J.String (E.tool_name tool)); ("budget", J.Float budget);
         ("seed", J.Int seed); ("kind", J.String r.kind);
         ("branches", J.Int r.branches); ("decision", J.Float r.decision);
         ("condition", J.Float r.condition); ("mcdc", J.Float r.mcdc);
         ("tests", J.Int r.tests);
       ])
  ^ "\n"

let result_path results_dir model = Filename.concat results_dir (model ^ ".json")

(* [None] on any defect — a truncated, hand-edited or stale file just
   falls back to re-running the model. *)
let load_result ~tool ~budget ~seed path model =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> None
  | text -> (
    match J.of_string text with
    | Error _ -> None
    | Ok json -> (
      let field conv key = conv key (J.member key json) in
      match
        if
          field J.int "stcg-campaign-result" = 1
          && field J.string "model" = model
          && field J.string "tool" = E.tool_name tool
          && field J.float "budget" = budget
          && field J.int "seed" = seed
        then
          Some
            {
              kind = field J.string "kind";
              branches = field J.int "branches";
              decision = field J.float "decision";
              condition = field J.float "condition";
              mcdc = field J.float "mcdc";
              tests = field J.int "tests";
            }
        else None
      with
      | r -> r
      | exception J.Type_error _ -> None))

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* Atomic store: write to a sibling temp file, then rename — a killed
   campaign leaves either a complete result or a leftover temp that the
   loader ignores, never a half-written result that parses. *)
let write_result ~tool ~budget ~seed path model r =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (result_line ~tool ~budget ~seed model r);
  close_out oc;
  Sys.rename tmp path

(* --- running ------------------------------------------------------------- *)

(* A synthetic registry entry: [Experiment.run_tool] only reads [name]
   and [program], the paper columns are irrelevant for corpus models. *)
let entry_of ~model prog : Models.Registry.entry =
  let zero = (0., 0., 0.) in
  {
    name = model;
    description = "corpus model";
    program = (fun () -> prog);
    source = Models.Registry.Src_program (fun () -> prog);
    paper_branches = 0;
    paper_blocks = 0;
    paper = { p_sldv = zero; p_simcotest = zero; p_stcg = zero };
  }

let execute ~tool ~budget ~seed ~store (model, file) =
  (* documents may carry a (spec ...) section; the coverage campaign
     only runs the source *)
  match Parser.parse_document_file file with
  | Error e -> Error e
  | Ok { Document.source = src; _ } -> (
    match
      let prog = Slim.Ir.renumber_decisions (Source.program_of src) in
      let rr = E.run_tool ~budget ~seed tool (entry_of ~model prog) in
      {
        kind = Source.kind_name src;
        branches = Slim.Branch.count prog;
        decision = Stcg.Run_result.decision_pct rr;
        condition = Stcg.Run_result.condition_pct rr;
        mcdc = Stcg.Run_result.mcdc_pct rr;
        tests = List.length rr.Stcg.Run_result.testcases;
      }
    with
    | r -> store model r; Ok r
    | exception exn ->
      Error
        {
          Syntax.code = "T900";
          pos = { line = 1; col = 1 };
          msg = Printf.sprintf "running %s failed: %s" model
                  (Printexc.to_string exn);
        })

let render ~tool ~budget ~seed outcomes =
  let b = Buffer.create 1024 in
  let ok = List.filter (fun o -> Result.is_ok o.o_result) outcomes in
  let failed = List.length outcomes - List.length ok in
  Buffer.add_string b
    (Printf.sprintf "campaign: %d models (%d ok, %d failed) | tool %s | budget %g | seed %d\n"
       (List.length outcomes) (List.length ok) failed (E.tool_name tool)
       budget seed);
  let name_w =
    List.fold_left (fun w o -> max w (String.length o.o_model)) 5 ok
  in
  if ok <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "%-*s  %-8s %8s %9s %10s %6s %6s\n" name_w "model"
         "kind" "branch" "decision" "condition" "mcdc" "tests");
    List.iter
      (fun o ->
        match o.o_result with
        | Error _ -> ()
        | Ok r ->
          Buffer.add_string b
            (Printf.sprintf "%-*s  %-8s %8d %8.1f%% %9.1f%% %5.1f%% %6d\n"
               name_w o.o_model r.kind r.branches r.decision r.condition
               r.mcdc r.tests))
      ok
  end;
  if failed > 0 then begin
    Buffer.add_string b "parse/run failures:\n";
    List.iter
      (fun o ->
        match o.o_result with
        | Ok _ -> ()
        | Error e ->
          Buffer.add_string b
            (Printf.sprintf "  %s\n"
               (Syntax.error_to_string ~file:o.o_file e)))
      outcomes
  end;
  Buffer.contents b

let run ?(tool = E.STCG) ?(budget = 600.0) ?(seed = 1) ?jobs ?results_dir
    ?(log = fun _ -> ()) dir =
  let models = discover dir in
  let results_dir =
    match results_dir with
    | Some d -> d
    | None -> Filename.concat dir "results"
  in
  mkdir_p results_dir;
  let plan =
    List.map
      (fun (model, file) ->
        match
          load_result ~tool ~budget ~seed (result_path results_dir model) model
        with
        | Some r -> (model, file, Some r)
        | None -> (model, file, None))
      models
  in
  let to_run =
    List.filter_map
      (fun (m, f, c) -> if c = None then Some (m, f) else None)
      plan
  in
  let cached = List.length plan - List.length to_run in
  log
    (Printf.sprintf "campaign: %d models in %s (%d cached, %d to run)"
       (List.length plan) dir cached (List.length to_run));
  let store model r =
    write_result ~tool ~budget ~seed (result_path results_dir model) model r
  in
  let fresh =
    match to_run with
    | [] -> []
    | _ ->
      Harness.Pool.parallel_map ?jobs
        (execute ~tool ~budget ~seed ~store)
        to_run
  in
  let fresh = ref fresh in
  let outcomes =
    List.map
      (fun (model, file, c) ->
        match c with
        | Some r ->
          { o_model = model; o_file = file; o_cached = true; o_result = Ok r }
        | None ->
          let r = List.hd !fresh in
          fresh := List.tl !fresh;
          { o_model = model; o_file = file; o_cached = false; o_result = r })
      plan
  in
  let failed =
    List.length (List.filter (fun o -> Result.is_error o.o_result) outcomes)
  in
  {
    outcomes;
    summary = render ~tool ~budget ~seed outcomes;
    executed = List.length to_run;
    cached;
    failed;
  }
