(* stcg — command-line front-end.

   Subcommands mirror the paper's artifacts:
     list-models          the benchmark suite (Table II data)
     run                  one tool on one model, with test-case export
     table1 table2 table3 the paper's tables
     fig3 fig4            the paper's figures (fig4 can dump CSV)
     ablations            design-choice ablations
     replay               re-measure coverage of an exported test suite

   The campaign commands (table3, fig4, ablations) run their job matrix
   on --jobs worker domains; the output is byte-identical for any
   worker count. *)

open Cmdliner

(* A NaN or infinite budget never expires, so refuse it up front. *)
let budget_conv =
  let parse s =
    match float_of_string_opt s with
    | Some b when Float.is_finite b && b >= 0.0 -> Ok b
    | _ ->
      Error
        (`Msg (Fmt.str "expected a finite, non-negative number, got %S" s))
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let budget_arg =
  let doc = "Virtual time budget in seconds (the paper uses 3600)." in
  Arg.(value & opt budget_conv 3600.0 & info [ "budget" ] ~docv:"SECONDS" ~doc)

let seed_arg =
  let doc = "PRNG seed for randomized tools." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Zero seeds average over nothing (NaN cells) and a negative count has
   no seed list, so refuse both up front. *)
let seeds_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Fmt.str "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let seeds_arg ~default =
  let doc = "Number of seeds to average randomized tools over." in
  Arg.(value & opt seeds_conv default & info [ "seeds" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the run matrix (default: \\$(b,STCG_JOBS) or the \
     machine's core count minus one).  Output is byte-identical for any \
     value; 1 disables parallelism."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let model_arg =
  let doc = "Benchmark model name (see list-models)." in
  Arg.(required & opt (some string) None & info [ "model"; "m" ] ~docv:"MODEL" ~doc)

(* --- telemetry --------------------------------------------------------- *)

let stats_arg =
  let doc =
    "Print telemetry after the run: deterministic counters and histograms, \
     then scheduling counters and wall-clock span totals."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace_event JSON file to $(docv) (open in \
     chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let force_arg =
  let doc = "Allow $(b,--trace) to overwrite an existing file." in
  Arg.(value & flag & info [ "force" ] ~doc)

let telemetry_term =
  Term.(
    const (fun stats trace force -> (stats, trace, force))
    $ stats_arg $ trace_arg $ force_arg)

(* Validate the trace destination and enable telemetry *before* the
   workload runs; the returned thunk exports after it. *)
let telemetry_setup (stats, trace, force) =
  (match trace with
   | Some path when Sys.file_exists path && not force ->
     Fmt.epr "stcg: refusing to overwrite existing %s (pass --force)@." path;
     exit 2
   | _ -> ());
  if stats || trace <> None then Telemetry.enable ();
  fun () ->
    (match trace with
     | Some path ->
       Telemetry.Chrome_trace.write ~path;
       Fmt.pr "wrote Chrome trace to %s@." path
     | None -> ());
    if stats then print_string (Telemetry.render_summary ())

let tool_arg =
  let doc = "Tool: stcg, stcg-hybrid, sldv or simcotest." in
  Arg.(value & opt string "stcg" & info [ "tool"; "t" ] ~docv:"TOOL" ~doc)

let find_model name =
  match Models.Registry.find name with
  | Some e -> e
  | None ->
    Fmt.epr "unknown model %s; available: %s@." name
      (String.concat ", " Models.Registry.names);
    exit 2

let parse_tool = function
  | "stcg" -> Harness.Experiment.STCG
  | "stcg-hybrid" -> Harness.Experiment.STCG_hybrid
  | "sldv" -> Harness.Experiment.SLDV
  | "simcotest" -> Harness.Experiment.SimCoTest
  | t ->
    Fmt.epr "unknown tool %s (stcg | stcg-hybrid | sldv | simcotest)@." t;
    exit 2

let list_models_cmd =
  let run () =
    List.iter
      (fun (e : Models.Registry.entry) ->
        let prog = e.Models.Registry.program () in
        Fmt.pr "%-12s %-40s %4d branches@." e.Models.Registry.name
          e.Models.Registry.description
          (Slim.Exec.n_branches (Slim.Exec.handle prog)))
      Models.Registry.entries
  in
  Cmd.v (Cmd.info "list-models" ~doc:"List the benchmark models (Table II).")
    Term.(const run $ const ())

let run_cmd =
  let run model tool budget seed analyze domain verdict_priority export tel =
    let finish = telemetry_setup tel in
    let entry = find_model model in
    let tool = parse_tool tool in
    let domain =
      match domain with
      | "interval" -> `Interval
      | "octagon" -> `Octagon
      | d -> Fmt.failwith "unknown domain %S (interval|octagon)" d
    in
    let result =
      Harness.Experiment.run_tool ~budget ~analyze ~domain ~verdict_priority
        ~seed tool entry
    in
    Fmt.pr "%a@." Stcg.Run_result.pp_summary result;
    (match export with
     | Some path ->
       let prog = entry.Models.Registry.program () in
       Stcg.Testcase.save prog result.Stcg.Run_result.testcases path;
       Fmt.pr "exported %d test cases to %s@."
         (List.length result.Stcg.Run_result.testcases)
         path
     | None -> ());
    Fmt.pr "timeline:@.";
    List.iter
      (fun (t, p) -> Fmt.pr "  %7.1fs  %5.1f%%@." t p)
      result.Stcg.Run_result.timeline;
    finish ()
  in
  let export_arg =
    Arg.(value & opt (some string) None
         & info [ "export" ] ~docv:"FILE" ~doc:"Export test cases to $(docv).")
  in
  let analyze_arg =
    Arg.(value & flag
         & info [ "analyze" ]
             ~doc:"Run the static analyzer first: proven-dead objectives \
                   are justified in coverage reporting and skipped by the \
                   solving loop (STCG variants only).")
  in
  let domain_arg =
    Arg.(value & opt string "interval"
         & info [ "domain" ] ~docv:"DOMAIN"
             ~doc:"Abstract domain for $(b,--analyze): $(b,interval) or \
                   $(b,octagon) (relational, slower, strictly more \
                   precise).")
  in
  let verdict_priority_arg =
    Arg.(value & flag
         & info [ "verdict-priority" ]
             ~doc:"With $(b,--analyze): order solving worklists \
                   Reachable-first and prune statically-Unsat solves at \
                   tree nodes (testcase output is unchanged on saturating \
                   runs).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one tool on one benchmark model.")
    Term.(const run $ model_arg $ tool_arg $ budget_arg $ seed_arg
          $ analyze_arg $ domain_arg $ verdict_priority_arg $ export_arg $ telemetry_term)

let table1_cmd =
  let run budget seed tel =
    let finish = telemetry_setup tel in
    print_string (Harness.Experiment.table1 ~budget ~seed ());
    finish ()
  in
  Cmd.v (Cmd.info "table1" ~doc:"State-tree construction trace (Table I).")
    Term.(const run $ budget_arg $ seed_arg $ telemetry_term)

let table2_cmd =
  let run () = print_string (Harness.Experiment.table2 ()) in
  Cmd.v (Cmd.info "table2" ~doc:"Benchmark description (Table II).")
    Term.(const run $ const ())

let table3_cmd =
  let run budget nseeds jobs tel =
    let finish = telemetry_setup tel in
    let seeds = List.init nseeds (fun i -> i + 1) in
    let _, text = Harness.Experiment.table3 ~budget ~seeds ?jobs () in
    print_string text;
    finish ()
  in
  Cmd.v (Cmd.info "table3" ~doc:"Coverage comparison (Table III).")
    Term.(const run $ budget_arg $ seeds_arg ~default:5 $ jobs_arg
          $ telemetry_term)

let fig3_cmd =
  let run () = print_string (Harness.Experiment.fig3 ()) in
  Cmd.v (Cmd.info "fig3" ~doc:"CPUTask branch structure and state tree (Figure 3).")
    Term.(const run $ const ())

(* Create the CSV directory before the campaign runs, so a bad path
   fails in milliseconds rather than after every run. *)
let prepare_csv_dir dir =
  match Sys.is_directory dir with
  | true -> ()
  | false ->
    Fmt.epr "fig4: --csv %s: Not a directory@." dir;
    exit 2
  | exception Sys_error _ -> (
    try Sys.mkdir dir 0o755
    with Sys_error msg ->
      Fmt.epr "fig4: --csv %s@." msg;
      exit 2)

let write_csvs dir csvs =
  List.iter
    (fun (name, csv) ->
      let path = Filename.concat dir (Fmt.str "fig4_%s.csv" name) in
      let oc = open_out path in
      output_string oc csv;
      close_out oc;
      Fmt.pr "wrote %s@." path)
    csvs

let fig4_cmd =
  let run budget seed models csv_dir jobs tel =
    List.iter (fun m -> ignore (find_model m)) models;
    Option.iter prepare_csv_dir csv_dir;
    let finish = telemetry_setup tel in
    let models = match models with [] -> None | l -> Some l in
    let panels, csvs = Harness.Experiment.fig4 ~budget ~seed ?models ?jobs () in
    print_string panels;
    (match csv_dir with None -> () | Some dir -> write_csvs dir csvs);
    finish ()
  in
  let models_arg =
    Arg.(value & opt_all string [] & info [ "only" ] ~docv:"MODEL"
         ~doc:"Restrict to the given model(s); repeatable.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"DIR" ~doc:"Also dump per-model CSV series to $(docv).")
  in
  Cmd.v (Cmd.info "fig4" ~doc:"Coverage versus time, all tools (Figure 4).")
    Term.(const run $ budget_arg $ seed_arg $ models_arg $ csv_arg $ jobs_arg
          $ telemetry_term)

let ablations_cmd =
  let run budget nseeds jobs tel =
    let finish = telemetry_setup tel in
    let seeds = List.init nseeds (fun i -> i + 1) in
    print_string (Harness.Experiment.ablations ~budget ~seeds ?jobs ());
    finish ()
  in
  Cmd.v
    (Cmd.info "ablations"
       ~doc:"Ablate STCG's design choices (depth sort, state constants, random fallback, hybrid).")
    Term.(const run $ budget_arg $ seeds_arg ~default:3 $ jobs_arg
          $ telemetry_term)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_cmd =
  (* Per-target lint result: the A-diags of the compiled program, or
     the parse error that stopped everything. *)
  let lint_model (e : Models.Registry.entry) =
    (e.Models.Registry.name, Analysis.Lint.run (e.Models.Registry.program ()),
     None)
  in
  let lint_file f =
    match Text.Parser.parse_file f with
    | Error e -> (f, [], Some e)
    | Ok src -> (f, Analysis.Lint.run (Text.Source.program_of src), None)
  in
  let print_json results issues =
    let module J = Util.Json in
    let str x = J.String x in
    let target (name, diags, err) =
      let findings =
        (match err with
         | Some (e : Text.Syntax.error) ->
           [
             J.Obj
               [
                 ("code", str e.Text.Syntax.code);
                 ("line", J.Int e.Text.Syntax.pos.line);
                 ("col", J.Int e.Text.Syntax.pos.col);
                 ("msg", str e.Text.Syntax.msg);
               ];
           ]
         | None -> [])
        @ List.map
            (fun (d : Analysis.Diag.t) ->
              J.Obj
                [
                  ("code", str (Analysis.Diag.code_id d.Analysis.Diag.d_code));
                  ("loc", str d.Analysis.Diag.d_loc);
                  ("msg", str d.Analysis.Diag.d_msg);
                ])
            diags
      in
      J.Obj [ ("target", str name); ("findings", J.List findings) ]
    in
    print_endline
      (J.to_string
         (J.Obj
            [
              ("issues", J.Int issues);
              ("targets", J.List (List.map target results));
            ]))
  in
  let run model all files json tel =
    let finish = telemetry_setup tel in
    let entries =
      if all then Models.Registry.entries
      else match model with Some m -> [ find_model m ] | None -> []
    in
    if entries = [] && files = [] then begin
      Fmt.epr "lint: pass --model NAME, --all or FILE.stcg arguments@.";
      exit 2
    end;
    let results = List.map lint_model entries @ List.map lint_file files in
    let issues =
      List.fold_left
        (fun acc (_, diags, err) ->
          acc + List.length diags + match err with Some _ -> 1 | None -> 0)
        0 results
    in
    if json then print_json results issues
    else
      List.iter
        (fun (target, diags, err) ->
          match err with
          | Some e ->
            print_endline (Text.Syntax.error_to_string ~file:target e)
          | None ->
            List.iter print_endline
              (Analysis.Lint.to_lines ~model:target diags))
        results;
    finish ();
    if issues > 0 then exit 1
  in
  let model_opt_arg =
    Arg.(value & opt (some string) None
         & info [ "model"; "m" ] ~docv:"MODEL"
             ~doc:"Benchmark model name (see list-models).")
  in
  let all_arg =
    Arg.(value & flag
         & info [ "all" ] ~doc:"Lint every registry model.")
  in
  let files_arg =
    Arg.(value & pos_all file []
         & info [] ~docv:"FILE"
             ~doc:"Textual .stcg file(s): parse and validate, then lint \
                   the compiled program (A-codes).")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print findings as a JSON object on stdout (stable field \
                   order) instead of text lines.  Exit status is \
                   unchanged.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically lint models and .stcg files: uninitialized reads, \
             dead stores, constant guards, unreachable states, index range \
             errors (A-codes).  Exit 1 when any finding fires.")
    Term.(const run $ model_opt_arg $ all_arg $ files_arg $ json_arg
          $ telemetry_term)

let replay_cmd =
  let run model path tel =
    let finish = telemetry_setup tel in
    let entry = find_model model in
    let prog = entry.Models.Registry.program () in
    let testcases = Stcg.Testcase.load prog path in
    let tracker = Stcg.Testcase.replay_suite prog testcases in
    Fmt.pr "replayed %d test cases: %a@." (List.length testcases)
      Coverage.Tracker.pp_summary tracker;
    finish ()
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"Test-suite file produced by run --export.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Independently re-measure the coverage of an exported test suite.")
    Term.(const run $ model_arg $ file_arg $ telemetry_term)

(* --- textual model format (.stcg) -------------------------------------- *)

let stcg_files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE"
       ~doc:"Textual model file(s) in the .stcg format.")

let dump_cmd =
  let run model =
    let entry = find_model model in
    print_string
      (Text.Printer.print (Text.Source.of_registry entry.Models.Registry.source))
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Print a benchmark model in the textual .stcg format (the \
             golden files under test/goldens are this command's output).")
    Term.(const run $ model_arg)

let parse_cmd =
  let run files =
    let failed = ref false in
    List.iter
      (fun f ->
        match Text.Parser.parse_file f with
        | Ok src ->
          Fmt.pr "%s: %s %s@." f (Text.Source.kind_name src)
            (Text.Source.name src)
        | Error e ->
          failed := true;
          Fmt.epr "%s@." (Text.Syntax.error_to_string ~file:f e))
      files;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "parse"
       ~doc:"Parse .stcg files and report their kind, or diagnostics with \
             stable error codes and line:column positions.  Exit 1 on any \
             parse failure.")
    Term.(const run $ stcg_files_arg)

let fmt_cmd =
  let run write check files =
    let failed = ref false in
    let dirty = ref false in
    List.iter
      (fun f ->
        match Text.Parser.parse_file f with
        | Error e ->
          failed := true;
          Fmt.epr "%s@." (Text.Syntax.error_to_string ~file:f e)
        | Ok src ->
          let canon = Text.Printer.print src in
          if write || check then begin
            let same = read_file f = canon in
            if not same then begin
              dirty := true;
              if write then begin
                let oc = open_out_bin f in
                output_string oc canon;
                close_out oc;
                Fmt.epr "stcg fmt: rewrote %s@." f
              end
              else Fmt.epr "stcg fmt: %s is not canonical@." f
            end
          end
          else print_string canon)
      files;
    if !failed || (check && !dirty) then exit 1
  in
  let write_arg =
    Arg.(value & flag
         & info [ "write"; "w" ] ~doc:"Rewrite the files in place.")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Print nothing; exit 1 if any file is not in canonical \
                   form.")
  in
  Cmd.v
    (Cmd.info "fmt"
       ~doc:"Reprint .stcg files in canonical form (to stdout by default).")
    Term.(const run $ write_arg $ check_arg $ stcg_files_arg)

let () =
  let doc = "STCG: state-aware test case generation (DAC'23 reproduction)" in
  let info = Cmd.info "stcg" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_models_cmd; run_cmd; table1_cmd; table2_cmd; table3_cmd;
            fig3_cmd; fig4_cmd; ablations_cmd; lint_cmd; replay_cmd;
            dump_cmd; parse_cmd; fmt_cmd;
          ]))
