(* stcg — command-line front-end.

   Subcommands mirror the paper's artifacts:
     list-models          the benchmark suite (Table II data)
     run                  one tool on one model, with test-case export
     table1 table2 table3 the paper's tables
     fig3 fig4            the paper's figures (fig4 can dump CSV)
     ablations            design-choice ablations
     merge                combine --shard partial-result files
     replay               re-measure coverage of an exported test suite

   The campaign commands (table3, fig4, ablations) also run sharded:
   --shard I/N executes one deterministic stripe of the job matrix and
   writes a partial-results JSON; `stcg merge` rebuilds the exact
   artifact from a full set of partials; --shards N orchestrates both
   steps locally by spawning this binary once per shard — separate
   processes share no OCaml heap, so shards scale past the
   stop-the-world minor-GC ceiling that caps worker domains. *)

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

(* --- sharding ---------------------------------------------------------- *)

let shard_conv =
  let parse s =
    let bad () =
      Error (`Msg (Fmt.str "expected I/N with 0 <= I < N, got %S" s))
    in
    match String.index_opt s '/' with
    | None -> bad ()
    | Some k -> (
      match
        ( int_of_string_opt (String.sub s 0 k),
          int_of_string_opt (String.sub s (k + 1) (String.length s - k - 1)) )
      with
      | Some i, Some n when n >= 1 && i >= 0 && i < n -> Ok (i, n)
      | _ -> bad ())
  in
  let print ppf (i, n) = Fmt.pf ppf "%d/%d" i n in
  Arg.conv (parse, print)

let shard_arg =
  let doc =
    "Execute only shard $(docv) (0-based) of the campaign's canonical job \
     matrix — job $(i,j) belongs to shard $(i,j) mod N — and write a \
     partial-results JSON (see $(b,--out)) instead of the artifact.  \
     Combine the partials with $(b,stcg merge)."
  in
  Arg.(value & opt (some shard_conv) None & info [ "shard" ] ~docv:"I/N" ~doc)

let shards_arg =
  let doc =
    "Orchestrate a sharded run: spawn $(docv) copies of this binary (one per \
     shard), merge their partials and print the artifact.  Output is \
     byte-identical to the unsharded run; separate processes share no OCaml \
     heap, so this scales past the worker-domain ceiling."
  in
  Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N" ~doc)

let out_arg =
  let doc = "Destination for the $(b,--shard) partial JSON (- is stdout)." in
  Arg.(value & opt string "-" & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let write_output path text =
  if path = "-" then print_string text
  else begin
    let oc = open_out_bin path in
    output_string oc text;
    close_out oc;
    Fmt.epr "stcg: wrote %s@." path
  end

(* Spawn one child per shard ([argv_of_shard i partial_file] names the
   child command line), wait for all of them, merge their partials. *)
let orchestrate ~shards argv_of_shard =
  if shards < 1 then begin
    Fmt.epr "stcg: --shards must be >= 1@.";
    exit 2
  end;
  let tmps =
    List.init shards (fun i ->
        Filename.temp_file (Fmt.str "stcg-shard%d-" i) ".json")
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun t -> try Sys.remove t with Sys_error _ -> ()) tmps)
    (fun () ->
      let pids =
        List.mapi
          (fun i tmp ->
            let argv = Sys.executable_name :: argv_of_shard i tmp in
            Unix.create_process Sys.executable_name (Array.of_list argv)
              Unix.stdin Unix.stdout Unix.stderr)
          tmps
      in
      let failed = ref 0 in
      List.iteri
        (fun i pid ->
          match snd (Unix.waitpid [] pid) with
          | Unix.WEXITED 0 -> ()
          | Unix.WEXITED c ->
            incr failed;
            Fmt.epr "stcg: shard %d/%d exited with %d@." i shards c
          | Unix.WSIGNALED s | Unix.WSTOPPED s ->
            incr failed;
            Fmt.epr "stcg: shard %d/%d killed by signal %d@." i shards s)
        pids;
      if !failed > 0 then exit 1;
      try Harness.Shard.merge_files tmps
      with Harness.Shard.Malformed msg ->
        Fmt.epr "stcg: merge failed: %s@." msg;
        exit 1)

(* Shared driver for the campaign commands: plain, --shard, --shards. *)
let campaign ~spec ~argv_of_shard ~print_merged ~plain ?jobs ~shard ~shards
    ~out () =
  match (shard, shards) with
  | Some _, Some _ ->
    Fmt.epr "stcg: --shard and --shards are mutually exclusive@.";
    exit 2
  | Some s, None ->
    write_output out (Harness.Shard.run_partial ?jobs ~shard:s spec)
  | None, Some n ->
    print_merged (orchestrate ~shards:n (fun i tmp -> argv_of_shard i n tmp))
  | None, None -> plain ()

let float_str f = Fmt.str "%.17g" f

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
          (Slim.Branch.count prog))
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
  let run budget nseeds jobs shard shards out tel =
    let finish = telemetry_setup tel in
    let seeds = List.init nseeds (fun i -> i + 1) in
    let spec = Harness.Shard.spec ~budget ~seeds Harness.Shard.Table3 in
    campaign ~spec
      ~argv_of_shard:(fun i n tmp ->
        [
          "table3"; "--budget"; float_str budget; "--seeds";
          string_of_int nseeds; "--shard"; Fmt.str "%d/%d" i n; "--out"; tmp;
        ])
      ~print_merged:(fun m -> print_string (Harness.Shard.render m))
      ~plain:(fun () ->
        let _, text = Harness.Experiment.table3 ~budget ~seeds ?jobs () in
        print_string text)
      ?jobs ~shard ~shards ~out ();
    finish ()
  in
  Cmd.v (Cmd.info "table3" ~doc:"Coverage comparison (Table III).")
    Term.(const run $ budget_arg $ seeds_arg ~default:5 $ jobs_arg $ shard_arg
          $ shards_arg $ out_arg $ telemetry_term)

let fig3_cmd =
  let run () = print_string (Harness.Experiment.fig3 ()) in
  Cmd.v (Cmd.info "fig3" ~doc:"CPUTask branch structure and state tree (Figure 3).")
    Term.(const run $ const ())

let write_csvs dir csvs =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter
    (fun (name, csv) ->
      let path = Filename.concat dir (Fmt.str "fig4_%s.csv" name) in
      let oc = open_out path in
      output_string oc csv;
      close_out oc;
      Fmt.pr "wrote %s@." path)
    csvs

let fig4_cmd =
  let run budget seed models csv_dir jobs shard shards out tel =
    List.iter (fun m -> ignore (find_model m)) models;
    let finish = telemetry_setup tel in
    let models_opt = match models with [] -> None | l -> Some l in
    let spec =
      Harness.Shard.spec ~budget ~seed ?models:models_opt Harness.Shard.Fig4
    in
    let emit (panels, csvs) =
      print_string panels;
      match csv_dir with None -> () | Some dir -> write_csvs dir csvs
    in
    campaign ~spec
      ~argv_of_shard:(fun i n tmp ->
        [ "fig4"; "--budget"; float_str budget; "--seed"; string_of_int seed ]
        @ List.concat_map (fun m -> [ "--only"; m ]) models
        @ [ "--shard"; Fmt.str "%d/%d" i n; "--out"; tmp ])
      ~print_merged:(function
        | Harness.Shard.M_fig4 (panels, csvs) -> emit (panels, csvs)
        | m -> print_string (Harness.Shard.render m))
      ~plain:(fun () ->
        emit (Harness.Experiment.fig4 ~budget ~seed ?models:models_opt ?jobs ()))
      ?jobs ~shard ~shards ~out ();
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
          $ shard_arg $ shards_arg $ out_arg $ telemetry_term)

let ablations_cmd =
  let run budget nseeds jobs shard shards out tel =
    let finish = telemetry_setup tel in
    let seeds = List.init nseeds (fun i -> i + 1) in
    let spec = Harness.Shard.spec ~budget ~seeds Harness.Shard.Ablations in
    campaign ~spec
      ~argv_of_shard:(fun i n tmp ->
        [
          "ablations"; "--budget"; float_str budget; "--seeds";
          string_of_int nseeds; "--shard"; Fmt.str "%d/%d" i n; "--out"; tmp;
        ])
      ~print_merged:(fun m -> print_string (Harness.Shard.render m))
      ~plain:(fun () ->
        print_string (Harness.Experiment.ablations ~budget ~seeds ?jobs ()))
      ?jobs ~shard ~shards ~out ();
    finish ()
  in
  Cmd.v
    (Cmd.info "ablations"
       ~doc:"Ablate STCG's design choices (depth sort, state constants, random fallback, hybrid).")
    Term.(const run $ budget_arg $ seeds_arg ~default:3 $ jobs_arg $ shard_arg
          $ shards_arg $ out_arg $ telemetry_term)

let merge_cmd =
  let run output parts csv_dir =
    match Harness.Shard.merge_files parts with
    | merged ->
      let text = Harness.Shard.render merged in
      if output = "-" then print_string text
      else begin
        let oc = open_out_bin output in
        output_string oc text;
        close_out oc;
        Fmt.pr "wrote %s@." output
      end;
      (match (merged, csv_dir) with
       | Harness.Shard.M_fig4 (_, csvs), Some dir -> write_csvs dir csvs
       | _ -> ())
    | exception Harness.Shard.Malformed msg ->
      Fmt.epr "stcg merge: %s@." msg;
      exit 2
    | exception Sys_error msg ->
      Fmt.epr "stcg merge: %s@." msg;
      exit 2
  in
  let output_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT"
         ~doc:"Destination for the merged artifact (- is stdout).")
  in
  let parts_arg =
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"PART"
         ~doc:"Partial-results files written by --shard runs.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"DIR"
             ~doc:"For fig4 campaigns, also dump per-model CSV series to \
                   $(docv).")
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:"Merge --shard partial-results files into the exact artifact a \
             single-process run prints.  The partials carry their campaign \
             parameters; merging refuses mismatched campaigns, overlaps and \
             gaps.")
    Term.(const run $ output_arg $ parts_arg $ csv_arg)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_cmd =
  (* Per-target lint result: the A-diags of the compiled program, the
     S-findings of the spec section (files only), or the parse error
     that stopped everything. *)
  let lint_model (e : Models.Registry.entry) =
    (e.Models.Registry.name, Analysis.Lint.run (e.Models.Registry.program ()),
     [], None)
  in
  let lint_file f =
    match Text.Parser.parse_document_file f with
    | Error e -> (f, [], [], Some e)
    | Ok doc ->
      let prog = Text.Source.program_of doc.Text.Document.source in
      let text = try read_file f with Sys_error _ -> "" in
      (f, Analysis.Lint.run prog, Text.Doclint.run ~text doc, None)
  in
  let print_json results issues =
    let module J = Util.Json in
    let str x = J.String x in
    let target (name, diags, sfindings, err) =
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
        @ List.map
            (fun (f : Text.Doclint.finding) ->
              J.Obj
                [
                  ("code", str (Text.Doclint.code_id f.Text.Doclint.s_code));
                  ("line", J.Int f.Text.Doclint.s_pos.line);
                  ("col", J.Int f.Text.Doclint.s_pos.col);
                  ("req", str f.Text.Doclint.s_req);
                  ("msg", str f.Text.Doclint.s_msg);
                ])
            sfindings
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
        (fun acc (_, diags, sfindings, err) ->
          acc + List.length diags + List.length sfindings
          + match err with Some _ -> 1 | None -> 0)
        0 results
    in
    if json then print_json results issues
    else
      List.iter
        (fun (target, diags, sfindings, err) ->
          match err with
          | Some e ->
            print_endline (Text.Syntax.error_to_string ~file:target e)
          | None ->
            (* suppress the A-lint "clean" line when S-findings exist:
               the target is not clean *)
            if not (diags = [] && sfindings <> []) then
              List.iter print_endline
                (Analysis.Lint.to_lines ~model:target diags);
            List.iter print_endline
              (Text.Doclint.to_lines ~file:target sfindings))
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
             ~doc:"Textual .stcg file(s): parse and validate, lint the \
                   compiled program (A-codes), and lint the spec section \
                   against the analyzer's output bounds (S-codes, \
                   file:line:col positions).")
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
             errors (A-codes), and spec-aware requirement checks — \
             statically decided or vacuous requirements, windows past the \
             falsification horizon, constant signals (S-codes).  Exit 1 \
             when any finding fires.")
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
    let doc =
      {
        Text.Document.source =
          Text.Source.of_registry entry.Models.Registry.source;
        spec =
          List.map
            (fun (r : Spec.Requirements.req) ->
              (r.Spec.Requirements.r_name, r.Spec.Requirements.r_formula))
            (Spec.Requirements.for_model entry.Models.Registry.name);
      }
    in
    print_string (Text.Printer.print_document doc)
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Print a benchmark model in the textual .stcg format, including \
             its built-in requirement table as a (spec ...) section (the \
             golden files under test/goldens are this command's output).")
    Term.(const run $ model_arg)

let parse_cmd =
  let run files =
    let failed = ref false in
    List.iter
      (fun f ->
        match Text.Parser.parse_document_file f with
        | Ok doc ->
          let src = doc.Text.Document.source in
          let reqs = List.length doc.Text.Document.spec in
          if reqs = 0 then
            Fmt.pr "%s: %s %s@." f (Text.Source.kind_name src)
              (Text.Source.name src)
          else
            Fmt.pr "%s: %s %s (%d requirement%s)@." f
              (Text.Source.kind_name src) (Text.Source.name src) reqs
              (if reqs = 1 then "" else "s")
        | Error e ->
          failed := true;
          Fmt.epr "%s@." (Text.Syntax.error_to_string ~file:f e))
      files;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "parse"
       ~doc:"Parse .stcg files (including any (spec ...) requirement \
             section) and report their kind, or diagnostics with stable \
             error codes and line:column positions.  Exit 1 on any parse \
             failure.")
    Term.(const run $ stcg_files_arg)

let fmt_cmd =
  let run write check files =
    let failed = ref false in
    let dirty = ref false in
    List.iter
      (fun f ->
        match Text.Parser.parse_document_file f with
        | Error e ->
          failed := true;
          Fmt.epr "%s@." (Text.Syntax.error_to_string ~file:f e)
        | Ok doc ->
          let canon = Text.Printer.print_document doc in
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

let falsify_cmd =
  let run model seed jobs steps segments shape samples descent tel =
    let finish = telemetry_setup tel in
    let shape =
      match Spec.Signal.shape_of_name shape with
      | Some s -> s
      | None ->
        Fmt.epr "falsify: unknown shape %S (expected pwc or pwl)@." shape;
        exit 2
    in
    let cfg =
      {
        (Spec.Falsify.default_config ~seed) with
        steps;
        segments;
        shape;
        samples;
        descent;
      }
    in
    let reqs =
      match model with
      | None -> Spec.Requirements.table
      | Some m -> (
        let entry = find_model m in
        match Spec.Requirements.for_model entry.Models.Registry.name with
        | [] ->
          Fmt.epr "falsify: no requirements for model %s@."
            entry.Models.Registry.name;
          exit 2
        | reqs -> reqs)
    in
    let rows = Spec.Falsify.campaign ?jobs cfg reqs in
    print_string (Spec.Falsify.render cfg rows);
    finish ();
    let real_violation =
      List.exists
        (fun (r : Spec.Falsify.row) ->
          r.Spec.Falsify.f_falsified && not r.Spec.Falsify.f_fault)
        rows
    in
    if real_violation then exit 1
  in
  let model_opt_arg =
    Arg.(value & opt (some string) None
         & info [ "model"; "m" ] ~docv:"MODEL"
             ~doc:"Restrict the campaign to one model's requirements \
                   (default: the whole built-in table).")
  in
  let steps_arg =
    Arg.(value & opt int 48
         & info [ "steps" ] ~docv:"N" ~doc:"Trace length per search.")
  in
  let segments_arg =
    Arg.(value & opt int 6
         & info [ "segments" ] ~docv:"N"
             ~doc:"Signal-generator segments per input variable.")
  in
  let shape_arg =
    Arg.(value & opt string "pwc"
         & info [ "shape" ] ~docv:"SHAPE"
             ~doc:"Input signal shape: pwc (piecewise-constant) or pwl \
                   (piecewise-linear).")
  in
  let samples_arg =
    Arg.(value & opt int 32
         & info [ "samples" ] ~docv:"N"
             ~doc:"Random samples per requirement before local descent.")
  in
  let descent_arg =
    Arg.(value & opt int 64
         & info [ "descent" ] ~docv:"N"
             ~doc:"Local-descent proposals per requirement.")
  in
  Cmd.v
    (Cmd.info "falsify"
       ~doc:"Robustness-guided falsification: search input signals that \
             violate the built-in STL requirement table.  Output is \
             byte-identical for any --jobs value at a fixed seed.  Exit 1 \
             when a non-seeded requirement is falsified.")
    Term.(const run $ model_opt_arg $ seed_arg $ jobs_arg $ steps_arg
          $ segments_arg $ shape_arg $ samples_arg $ descent_arg
          $ telemetry_term)

let campaign_cmd =
  let run dir tool budget seed jobs results tel =
    let finish = telemetry_setup tel in
    let tool = parse_tool tool in
    let r =
      Text.Campaign.run ~tool ~budget ~seed ?jobs ?results_dir:results
        ~log:(fun s -> Fmt.epr "%s@." s)
        dir
    in
    Fmt.epr "stcg campaign: %d executed, %d cached@." r.Text.Campaign.executed
      r.Text.Campaign.cached;
    print_string r.Text.Campaign.summary;
    finish ();
    if r.Text.Campaign.failed > 0 then exit 1
  in
  let dir_arg =
    Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR"
         ~doc:"Directory of .stcg model files.")
  in
  let results_arg =
    Arg.(value & opt (some string) None
         & info [ "results" ] ~docv:"DIR"
             ~doc:"Result-store directory (default: $(i,DIR)/results).  One \
                   self-describing JSON file per model; re-invoking the \
                   campaign skips models whose stored result matches the \
                   configuration, so an interrupted campaign resumes where \
                   it stopped.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run one tool over every .stcg model in a directory, with a \
             resumable per-model result store.  The summary is \
             byte-identical whether the campaign ran in one go or was \
             interrupted and resumed.  Exit 1 if any model fails to parse \
             or run.")
    Term.(const run $ dir_arg $ tool_arg $ budget_arg $ seed_arg $ jobs_arg
          $ results_arg $ telemetry_term)

let () =
  let doc = "STCG: state-aware test case generation (DAC'23 reproduction)" in
  let info = Cmd.info "stcg" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_models_cmd; run_cmd; table1_cmd; table2_cmd; table3_cmd;
            fig3_cmd; fig4_cmd; ablations_cmd; merge_cmd; lint_cmd; replay_cmd;
            dump_cmd; parse_cmd; fmt_cmd; campaign_cmd; falsify_cmd;
          ]))
