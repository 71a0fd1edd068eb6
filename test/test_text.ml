(* Tests for the textual model format (lib/text): exact round-trips of
   every registry model and a large fuzz corpus, golden-stable parser
   diagnostics with positions, and crash-freedom of the parser under
   mutation.

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

(* A file is exactly one source form: a trailing form, such as the
   (spec ...) requirement section older files carried, is refused with
   the trailing-input diagnostic rather than silently dropped. *)
let test_error_trailing_spec () =
  let text =
    "(program \"p\"\n\
    \  (inputs (\"u\" (real 0 1)))\n\
    \  (outputs (\"y\" (real 0 10)))\n\
    \  (states)\n\
    \  (locals)\n\
    \  (body))\n\
     (spec (req \"r\" (<= (sig \"y\") (c 5))))\n"
  in
  expect_error "trailing (spec ...) section" text ~code:"T106" ~line:7 ~col:1;
  let path = Filename.temp_file "stcg-text-spec" ".stcg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      match Parser.parse_file path with
      | Ok _ -> Alcotest.fail "parse_file accepted a (spec ...) section"
      | Error e ->
        check Alcotest.string "parse_file: error code" "T106" e.Syntax.code)

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
          Alcotest.test_case "trailing spec section" `Quick
            test_error_trailing_spec;
          Alcotest.test_case "mutation fuzz" `Quick test_parser_fuzz;
        ] );
    ]
