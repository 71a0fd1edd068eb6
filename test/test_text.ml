(* Tests for the textual model format (lib/text): exact round-trips of
   every registry model and a large fuzz corpus, golden-stable parser
   diagnostics with positions, crash-freedom of the parser under
   mutation, and byte-identical resumable corpus campaigns.

   The round-trip oracle is two-sided: [parse (print m)] must be
   structurally equal to [m] AND differentially equal under lockstep
   execution (the compiled programs of original and reparsed source
   produce identical outputs and states on the same inputs), and
   re-printing the parsed source must reproduce the text byte for
   byte. *)

module Source = Text.Source
module Printer = Text.Printer
module Parser = Text.Parser
module Syntax = Text.Syntax
module Gen = Fuzzer.Gen
module Exec = Slim.Exec

let check = Alcotest.check

(* --- the round-trip oracle --------------------------------------------- *)

let reparse name text =
  match Parser.parse_string text with
  | Ok src -> src
  | Error e ->
    Alcotest.failf "%s: reparse failed: %s" name
      (Syntax.error_to_string ~file:name e)

(* Lockstep differential execution: same input rows through both
   programs, outputs and post-states must agree at every step. *)
let exec_equiv name p1 p2 rows =
  let h1 = Exec.handle p1 in
  let h2 = Exec.handle p2 in
  let s1 = ref (Exec.initial_state h1) in
  let s2 = ref (Exec.initial_state h2) in
  List.iteri
    (fun k row ->
      let o1, s1' = Exec.run_step h1 !s1 (Exec.inputs_of_list h1 row) in
      let o2, s2' = Exec.run_step h2 !s2 (Exec.inputs_of_list h2 row) in
      if not (Exec.values_equal o1 o2) then
        Alcotest.failf "%s: outputs diverge at step %d" name k;
      if not (Exec.values_equal s1' s2') then
        Alcotest.failf "%s: states diverge at step %d" name k;
      s1 := s1';
      s2 := s2')
    rows

let roundtrip ?(steps = 40) name src =
  let text = Printer.print src in
  let src' = reparse name text in
  check Alcotest.bool
    (Fmt.str "%s: parse (print m) structurally equal to m" name)
    true (Source.equal src src');
  check Alcotest.string
    (Fmt.str "%s: print (parse s) byte-identical to s" name)
    text (Printer.print src');
  let p1 = Source.program_of src in
  let p2 = Source.program_of src' in
  let rows = Gen.gen_inputs (Util.Splitmix.create 7) p1 ~steps in
  exec_equiv name p1 p2 rows

(* --- registry models ---------------------------------------------------- *)

let test_registry_roundtrip () =
  List.iter
    (fun (e : Models.Registry.entry) ->
      roundtrip e.Models.Registry.name
        (Source.of_registry e.Models.Registry.source))
    Models.Registry.entries

(* --- fuzz corpus --------------------------------------------------------- *)

let fuzz_corpus_count = 500

let test_fuzz_roundtrip () =
  for i = 0 to fuzz_corpus_count - 1 do
    let name = Fmt.str "case %d" i in
    let model, _steps, gen_inputs =
      Fuzzer.Campaign.case_gen ~seed:0 ~max_steps:8 i
    in
    let src = Source.of_spec model in
    let text = Printer.print src in
    let src' = reparse name text in
    if not (Source.equal src src') then
      Alcotest.failf "%s: parse (print m) <> m" name;
    check Alcotest.string
      (Fmt.str "%s: byte idempotence" name)
      text (Printer.print src');
    (* differential execution on the case's own input sequence *)
    match Gen.program_of model with
    | exception _ -> ()  (* compile failures are the fuzzer's own finding *)
    | p1 -> exec_equiv name p1 (Source.program_of src') (gen_inputs p1)
  done

(* --- parser diagnostics -------------------------------------------------- *)

let expect_error name text ~code ~line ~col =
  match Parser.parse_string text with
  | Ok _ -> Alcotest.failf "%s: expected %s, parse succeeded" name code
  | Error e ->
    check Alcotest.string (Fmt.str "%s: error code" name) code e.Syntax.code;
    check Alcotest.(pair int int)
      (Fmt.str "%s: position" name)
      (line, col)
      (e.Syntax.pos.Syntax.line, e.Syntax.pos.Syntax.col)

(* the reader blames the innermost unclosed '(' — far more actionable
   than pointing at end of input *)
let test_error_unclosed () =
  expect_error "unclosed subsystem"
    "(diagram \"d\"\n  (stores)\n  (blocks\n    (block 0 \"b\"\n"
    ~code:"T102" ~line:4 ~col:5

let test_error_unknown_block () =
  expect_error "unknown block kind"
    "(diagram \"d\"\n\
    \  (stores)\n\
    \  (blocks\n\
    \    (block 0 \"b\" (frobnicate) (wires))))\n"
    ~code:"T201" ~line:4 ~col:18

let test_error_type_mismatch () =
  expect_error "ill-typed program"
    "(program \"p\"\n\
    \  (inputs (\"u\" bool))\n\
    \  (outputs (\"y\" bool))\n\
    \  (states)\n\
    \  (locals)\n\
    \  (body (set (out \"y\") (+ (in \"u\") (c (i 1))))))\n"
    ~code:"T303" ~line:1 ~col:1

let test_error_duplicate_block_id () =
  expect_error "duplicate block id"
    "(diagram \"d\"\n\
    \  (stores)\n\
    \  (blocks\n\
    \    (block 0 \"a\" (const (i 1)) (wires))\n\
    \    (block 0 \"b\" (const (i 2)) (wires))))\n"
    ~code:"T203" ~line:5 ~col:5

let test_error_duplicate_state_name () =
  expect_error "duplicate chart state name"
    "(chart \"c\"\n\
    \  (inputs)\n\
    \  (outputs)\n\
    \  (data)\n\
    \  (region \"A\"\n\
    \    (state \"A\")\n\
    \    (state \"A\")))\n"
    ~code:"T302" ~line:1 ~col:1

let test_error_invalid_wiring () =
  expect_error "dangling wire source"
    "(diagram \"d\"\n\
    \  (stores)\n\
    \  (blocks\n\
    \    (block 0 \"g\" (gain 2) (wires (7 0)))\n\
    \    (block 1 \"y\" (outport \"y\") (wires (0 0)))))\n"
    ~code:"T301" ~line:1 ~col:1

let test_error_bad_number () =
  expect_error "malformed number"
    "(program \"p\"\n\
    \  (inputs (\"u\" (real 0 xx)))\n\
    \  (outputs)\n\
    \  (states)\n\
    \  (locals)\n\
    \  (body))\n"
    ~code:"T105" ~line:2 ~col:24

let test_error_wire_arity () =
  expect_error "wire arity mismatch"
    "(diagram \"d\"\n\
    \  (stores)\n\
    \  (blocks\n\
    \    (block 0 \"a\" (abs) (wires))))\n"
    ~code:"T202" ~line:4 ~col:5

(* --- parser crash-freedom under mutation --------------------------------- *)

(* Truncations and random byte edits of valid model texts: the parser
   must return [Ok] or [Error] on every one, never raise. *)
let test_parser_fuzz () =
  let alphabet = [| '('; ')'; '"'; '0'; '9'; 'a'; ' '; '\n'; '\\'; '-' |] in
  let tortured = ref 0 in
  for i = 0 to 39 do
    let model, _, _ = Fuzzer.Campaign.case_gen ~seed:0 ~max_steps:8 i in
    let text = Printer.print (Source.of_spec model) in
    let n = String.length text in
    let try_parse s =
      incr tortured;
      match Parser.parse_string s with
      | Ok _ | Error _ -> ()
      | exception exn ->
        Alcotest.failf "case %d: parser raised %s on mutated input" i
          (Printexc.to_string exn)
    in
    (* truncations at the quartiles *)
    List.iter
      (fun k -> try_parse (String.sub text 0 (n * k / 4)))
      [ 1; 2; 3 ];
    (* deterministic random single-byte edits *)
    let rng = Util.Splitmix.create (1000 + i) in
    for _ = 1 to 20 do
      let at = Util.Splitmix.int rng n in
      let c = alphabet.(Util.Splitmix.int rng (Array.length alphabet)) in
      let b = Bytes.of_string text in
      Bytes.set b at c;
      try_parse (Bytes.to_string b)
    done
  done;
  check Alcotest.bool "exercised mutations" true (!tortured > 800)

(* --- campaign resumability ----------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let fresh_dir name =
  let d = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists d then rm_rf d;
  Sys.mkdir d 0o755;
  d

(* Six tiny distinct programs, printed as the campaign corpus. *)
let tiny k : Source.t =
  let open Slim.Ir in
  Source.Program
    (renumber_decisions
       {
         name = Fmt.str "m%d" k;
         inputs = [ input "u" Slim.Value.tint ];
         outputs = [ output "y" Slim.Value.tint ];
         states = [ state "acc" Slim.Value.tint (Slim.Value.Int 0) ];
         locals = [];
         body =
           [
             if_ (iv "u" >: ci (3 * k))
               [ assign_state "acc" (sv "acc" +: ci 1) ]
               [ assign_state "acc" (ci 0) ];
             assign_out "y" (sv "acc");
           ];
       })

let populate dir =
  for k = 0 to 5 do
    write_file
      (Filename.concat dir (Fmt.str "m%d.stcg" k))
      (Printer.print (tiny k))
  done

let run_campaign dir =
  Text.Campaign.run ~tool:Harness.Experiment.STCG ~budget:10.0 ~seed:1 ~jobs:1
    dir

let test_campaign_resume () =
  let dir_a = fresh_dir "stcg-text-campaign-a" in
  let dir_b = fresh_dir "stcg-text-campaign-b" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir_a; rm_rf dir_b)
    (fun () ->
      populate dir_a;
      populate dir_b;
      (* uninterrupted reference run *)
      let full = run_campaign dir_a in
      check Alcotest.int "reference: all executed" 6 full.Text.Campaign.executed;
      check Alcotest.int "reference: nothing cached" 0 full.Text.Campaign.cached;
      check Alcotest.int "reference: no failures" 0 full.Text.Campaign.failed;
      (* simulate a campaign killed after three models: copy the first
         three result files, leave a half-written (poison) file for the
         fourth — exactly what an interrupt mid-write leaves behind *)
      let results_b = Filename.concat dir_b "results" in
      Sys.mkdir results_b 0o755;
      for k = 0 to 2 do
        let f = Fmt.str "m%d.json" k in
        write_file
          (Filename.concat results_b f)
          (read_file (Filename.concat dir_a (Filename.concat "results" f)))
      done;
      write_file
        (Filename.concat results_b "m3.json")
        "{\"stcg-campaign-result\":1,\"model\":\"m3\",\"tool\":\"STC";
      (* the resumed run must execute only the three missing models
         (the poison entry does not parse, so m3 re-runs) *)
      let resumed = run_campaign dir_b in
      check Alcotest.int "resume: only remaining executed" 3
        resumed.Text.Campaign.executed;
      check Alcotest.int "resume: three cached" 3 resumed.Text.Campaign.cached;
      List.iter
        (fun (o : Text.Campaign.outcome) ->
          let expect_cached = List.mem o.o_model [ "m0"; "m1"; "m2" ] in
          check Alcotest.bool
            (Fmt.str "resume: %s cached=%b" o.o_model expect_cached)
            expect_cached o.o_cached)
        resumed.Text.Campaign.outcomes;
      check Alcotest.string "resume: summary byte-identical"
        full.Text.Campaign.summary resumed.Text.Campaign.summary;
      (* a third invocation runs nothing and still renders identically *)
      let again = run_campaign dir_b in
      check Alcotest.int "settled: nothing executed" 0
        again.Text.Campaign.executed;
      check Alcotest.int "settled: all cached" 6 again.Text.Campaign.cached;
      check Alcotest.string "settled: summary byte-identical"
        full.Text.Campaign.summary again.Text.Campaign.summary)

(* --- result files from the previous writer ------------------------------ *)

(* The previous writer's compact layout: no spaces, floats as %.17g (the
   budget 10.0 printed as "10"). *)
let legacy_result_line json =
  let module J = Util.Json in
  let get conv key = conv key (J.member key json) in
  let num key = Printf.sprintf "%.17g" (get J.float key) in
  Printf.sprintf
    "{\"stcg-campaign-result\":1,\"model\":\"%s\",\"tool\":\"%s\",\"budget\":%s,\"seed\":%d,\"kind\":\"%s\",\"branches\":%d,\"decision\":%s,\"condition\":%s,\"mcdc\":%s,\"tests\":%d}\n"
    (get J.string "model") (get J.string "tool") (num "budget")
    (get J.int "seed") (get J.string "kind") (get J.int "branches")
    (num "decision") (num "condition") (num "mcdc") (get J.int "tests")

let test_campaign_legacy_results () =
  let dir = fresh_dir "stcg-text-campaign-legacy" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      populate dir;
      let full = run_campaign dir in
      for k = 0 to 5 do
        let path = Filename.concat dir (Fmt.str "results/m%d.json" k) in
        let current = read_file path in
        match Util.Json.of_string current with
        | Ok json ->
          let legacy = legacy_result_line json in
          check Alcotest.bool "legacy layout differs" true (legacy <> current);
          write_file path legacy
        | Error m -> Alcotest.fail m
      done;
      let resumed = run_campaign dir in
      check Alcotest.int "legacy: nothing executed" 0
        resumed.Text.Campaign.executed;
      check Alcotest.int "legacy: all cached" 6 resumed.Text.Campaign.cached;
      check Alcotest.string "legacy: summary byte-identical"
        full.Text.Campaign.summary resumed.Text.Campaign.summary)

(* --- config mismatches invalidate the store ------------------------------ *)

let test_campaign_config_mismatch () =
  let dir = fresh_dir "stcg-text-campaign-c" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      populate dir;
      let r1 = run_campaign dir in
      check Alcotest.int "first run executes" 6 r1.Text.Campaign.executed;
      (* a different seed must not reuse the stored results *)
      let r2 =
        Text.Campaign.run ~tool:Harness.Experiment.STCG ~budget:10.0 ~seed:2
          ~jobs:1 dir
      in
      check Alcotest.int "changed seed re-executes" 6 r2.Text.Campaign.executed)

let () =
  Alcotest.run "text"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "registry models" `Quick test_registry_roundtrip;
          Alcotest.test_case
            (Fmt.str "%d fuzz models (seed 0)" fuzz_corpus_count)
            `Slow test_fuzz_roundtrip;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "unclosed form" `Quick test_error_unclosed;
          Alcotest.test_case "unknown block" `Quick test_error_unknown_block;
          Alcotest.test_case "type mismatch" `Quick test_error_type_mismatch;
          Alcotest.test_case "duplicate block id" `Quick
            test_error_duplicate_block_id;
          Alcotest.test_case "duplicate state name" `Quick
            test_error_duplicate_state_name;
          Alcotest.test_case "invalid wiring" `Quick test_error_invalid_wiring;
          Alcotest.test_case "bad number" `Quick test_error_bad_number;
          Alcotest.test_case "wire arity" `Quick test_error_wire_arity;
          Alcotest.test_case "mutation fuzz" `Quick test_parser_fuzz;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "resume after interrupt" `Quick
            test_campaign_resume;
          Alcotest.test_case "config mismatch re-runs" `Quick
            test_campaign_config_mismatch;
          Alcotest.test_case "legacy result files resume" `Quick
            test_campaign_legacy_results;
        ] );
    ]
