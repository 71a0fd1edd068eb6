(* fuzz — random-model fuzzing with differential oracles.

   Generates random Slim diagrams and Stateflow charts, executes them,
   and cross-checks the whole stack (Exec vs Interp, coverage tracker
   invariants, symexec path-predicate soundness, solver solution
   soundness).  Failing cases are shrunk to a minimal runnable OCaml
   reproducer.  Exit status: 0 clean, 1 oracle violations, 2 usage. *)

open Cmdliner

let seed_arg =
  let doc =
    "Campaign seed.  Case $(i,i) of seed $(i,s) replays identically for \
     any $(b,--count), $(b,--jobs) or $(b,--chunk)."
  in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let count_arg =
  let doc = "Number of random cases to generate." in
  Arg.(value & opt int 100 & info [ "count"; "n" ] ~docv:"N" ~doc)

let max_steps_arg =
  let doc = "Maximum input-sequence length per case (drawn in [1, N])." in
  Arg.(value & opt int 12 & info [ "max-steps" ] ~docv:"N" ~doc)

let oracle_arg =
  let doc =
    "Oracles to run: comma-separated subset of exec, coverage, symexec, \
     solver, analysis, spec (repeatable).  Default: all six."
  in
  Arg.(
    value
    & opt_all (list string) []
    & info [ "oracle"; "o" ] ~docv:"NAMES" ~doc)

let jobs_arg =
  let doc =
    "Worker domains.  The summary is byte-identical for any value; 1 \
     (the default) disables parallelism."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let chunk_arg =
  let doc = "Cases per pool job when $(b,--jobs) > 1." in
  Arg.(value & opt int 8 & info [ "chunk" ] ~docv:"N" ~doc)

let json_arg =
  let doc = "Emit the summary as a JSON object instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let stats_arg =
  let doc =
    "Collect telemetry during the campaign and print it (or, with \
     $(b,--json), include it under the \"telemetry\" key): per-oracle \
     run counts and timing, solver/symexec/exec counters."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let corpus_arg =
  let doc =
    "Append every campaign failure to $(docv)/corpus.jsonl (created if \
     absent): one JSON object per line addressing the case by (seed, \
     index, max_steps) so it replays exactly."
  in
  Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR" ~doc)

let export_arg =
  let doc =
    "Also dump every generated model to $(docv)/seed$(i,S)-case$(i,NNNNNN).stcg \
     (created if absent) in the textual model format, so a campaign doubles \
     as a corpus builder for $(b,stcg campaign)."
  in
  Arg.(value & opt (some string) None & info [ "export" ] ~docv:"DIR" ~doc)

let export_models dir ~seed ~count ~max_steps =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let exported = ref 0 in
  for i = 0 to count - 1 do
    let model, _steps, _inputs =
      Fuzzer.Campaign.case_gen ~seed ~max_steps i
    in
    match Text.Printer.print (Text.Source.of_spec model) with
    | text ->
      let path =
        Filename.concat dir (Printf.sprintf "seed%d-case%06d.stcg" seed i)
      in
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      incr exported
    | exception exn ->
      (* a model the printer rejects is reported, not fatal: the
         campaign already judges the case itself *)
      Fmt.epr "export: case %d not printable: %s@." i (Printexc.to_string exn)
  done;
  Fmt.pr "export: wrote %d models to %s@." !exported dir

let replay_arg =
  let doc =
    "Replay a corpus file instead of running a campaign: regenerate each \
     entry's case and re-run the oracle that once failed.  Exit 0 when \
     every entry passes (all recorded bugs stayed fixed), 1 otherwise."
  in
  Arg.(
    value & opt (some file) None & info [ "replay-corpus" ] ~docv:"FILE" ~doc)

let replay_corpus path =
  match Fuzzer.Corpus.load path with
  | Error m ->
    Fmt.epr "corpus: %s@." m;
    exit 2
  | Ok entries ->
    let failed = ref 0 in
    List.iter
      (fun (e : Fuzzer.Corpus.entry) ->
        match Fuzzer.Corpus.replay e with
        | Fuzzer.Oracle.Pass ->
          Fmt.pr "replay seed=%d index=%d oracle=%s: PASS@." e.e_seed
            e.e_index e.e_oracle
        | Fuzzer.Oracle.Fail m ->
          incr failed;
          Fmt.pr "replay seed=%d index=%d oracle=%s: FAIL %s@." e.e_seed
            e.e_index e.e_oracle m)
      entries;
    Fmt.pr "corpus: %d entries, %d regressions@." (List.length entries)
      !failed;
    if !failed > 0 then exit 1

let run_campaign seed count max_steps oracles jobs chunk json stats corpus
    export =
  let oracles =
    match List.concat oracles with [] -> Fuzzer.Oracle.all | l -> l
  in
  let unknown =
    List.filter (fun o -> not (List.mem o Fuzzer.Oracle.all)) oracles
  in
  if unknown <> [] then begin
    Fmt.epr "unknown oracle(s) %s; available: %s@."
      (String.concat ", " unknown)
      (String.concat ", " Fuzzer.Oracle.all);
    exit 2
  end;
  if stats then Telemetry.enable ();
  (match export with
   | Some dir -> export_models dir ~seed ~count ~max_steps
   | None -> ());
  let summary =
    Fuzzer.Campaign.run ~oracles ~jobs ~chunk ~seed ~count ~max_steps ()
  in
  if json then begin
    let telemetry = if stats then Some (Telemetry.json_summary ()) else None in
    print_endline (Fuzzer.Campaign.to_json ?telemetry summary)
  end
  else begin
    Fmt.pr "%a@." Fuzzer.Campaign.pp_summary summary;
    if stats then print_string (Telemetry.render_summary ())
  end;
  (match corpus with
   | Some dir ->
     let entries =
       Fuzzer.Corpus.of_failures ~seed ~max_steps summary.Fuzzer.Campaign.s_failures
     in
     if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
     let path = Filename.concat dir "corpus.jsonl" in
     Fuzzer.Corpus.append ~path entries;
     if entries <> [] then
       Fmt.pr "corpus: %d failure(s) appended to %s@." (List.length entries)
         path
   | None -> ());
  if Fuzzer.Campaign.failures summary > 0 then exit 1

let main seed count max_steps oracles jobs chunk json stats corpus export
    replay =
  match replay with
  | Some path -> replay_corpus path
  | None ->
    run_campaign seed count max_steps oracles jobs chunk json stats corpus
      export

let cmd =
  let doc = "Random-model fuzzing with differential oracles." in
  Cmd.v
    (Cmd.info "fuzz" ~version:"1.0.0" ~doc)
    Term.(
      const main $ seed_arg $ count_arg $ max_steps_arg $ oracle_arg
      $ jobs_arg $ chunk_arg $ json_arg $ stats_arg $ corpus_arg
      $ export_arg $ replay_arg)

let () = exit (Cmd.eval cmd)
