(* Tests for the temporal-spec falsification subsystem (lib/spec):
   directed robustness cases against hand-computed values, a 500+-trace
   differential between the sliding-window monitor and the naive
   reference (bit-for-bit at every step, plus robustness-sign vs
   boolean-satisfaction agreement), falsification campaign gates (every
   seeded-faulty requirement must falsify at trace 1; campaign
   summaries byte-identical for any worker count), and the textual
   (spec ...) section round-trip with its stable diagnostics. *)

module Stl = Spec.Stl
module Monitor = Spec.Monitor
module Requirements = Spec.Requirements
module Falsify = Spec.Falsify

let check = Alcotest.check
let exact = Alcotest.float 0.0

let trace cols = Monitor.of_columns cols
let x arr = trace [ ("x", arr) ]
let atom cmp l r = Stl.Atom (cmp, l, r)
let sx = Stl.Sig "x"
let c v = Stl.Const v

let rob ?at t f =
  let fast = Monitor.robustness ?at t f in
  let slow = Monitor.robustness_naive ?at t f in
  check exact "fast = naive" slow fast;
  fast

(* --- directed robustness ------------------------------------------------ *)

let test_atoms () =
  let t = x [| 3.0; 7.0 |] in
  check exact "le at 0" 2.0 (rob t (atom Le sx (c 5.0)));
  check exact "le at 1" (-2.0) (rob ~at:1 t (atom Le sx (c 5.0)));
  check exact "ge at 0" (-2.0) (rob t (atom Ge sx (c 5.0)));
  check exact "eq at 0" (-2.0) (rob t (atom Eq sx (c 5.0)));
  check exact "eq never positive" 0.0 (rob t (atom Eq sx (c 3.0)));
  check exact "arith" 9.0
    (rob t
       (atom Le
          (Stl.Sub (sx, Stl.Abs (Stl.Neg (c 2.0))))
          (Stl.Add (Stl.Mul (sx, c 2.0), Stl.Min (c 8.0, Stl.Max (sx, c 4.0))))));
  check Alcotest.bool "sat le" true (Monitor.sat t (atom Le sx (c 5.0)));
  check Alcotest.bool "sat lt strict" false (Monitor.sat t (atom Lt sx (c 3.0)))

let test_connectives () =
  let t = x [| 2.0 |] in
  let ge1 = atom Ge sx (c 1.0) in
  let le0 = atom Le sx (c 0.0) in
  check exact "not" (-1.0) (rob t (Stl.Not ge1));
  check exact "and" (-2.0) (rob t (Stl.And (ge1, le0)));
  check exact "or" 1.0 (rob t (Stl.Or (ge1, le0)));
  check exact "implies" (-1.0) (rob t (Stl.Implies (ge1, le0)))

let test_always () =
  let t = x [| 1.0; 2.0; 6.0; 3.0 |] in
  let f = Stl.Always (0, 2, atom Le sx (c 5.0)) in
  check exact "t0" (-1.0) (rob t f);
  check exact "t1" (-1.0) (rob ~at:1 t f);
  check exact "t2 clamped" (-1.0) (rob ~at:2 t f);
  check exact "t3 clamped" 2.0 (rob ~at:3 t f)

let test_eventually () =
  let t = x [| 0.0; 1.0; 5.0; 0.0 |] in
  let f = Stl.Eventually (1, 2, atom Ge sx (c 4.0)) in
  check exact "t0" 1.0 (rob t f);
  check exact "t1" 1.0 (rob ~at:1 t f);
  check exact "t2 clamped" (-4.0) (rob ~at:2 t f);
  check exact "t3 clamped" (-4.0) (rob ~at:3 t f)

let test_until () =
  let t =
    trace [ ("x", [| 1.0; 2.0; 20.0; 2.0 |]); ("y", [| 0.0; 5.0; 0.0; 9.0 |]) ]
  in
  let f = Stl.Until (0, 3, atom Le sx (c 10.0), atom Ge (Stl.Sig "y") (c 3.0)) in
  check exact "t0" 2.0 (rob t f);
  check exact "t1" 2.0 (rob ~at:1 t f);
  check exact "t2" (-10.0) (rob ~at:2 t f);
  check exact "t3" 6.0 (rob ~at:3 t f)

let test_structure () =
  let a = atom Le sx (c 0.0) in
  check Alcotest.int "atom horizon" 0 (Stl.horizon a);
  check Alcotest.int "always horizon" 2 (Stl.horizon (Stl.Always (0, 2, a)));
  check Alcotest.int "nested horizon" 6
    (Stl.horizon (Stl.Always (0, 2, Stl.Eventually (1, 4, a))));
  check Alcotest.int "until horizon" 3
    (Stl.horizon (Stl.Until (1, 3, a, a)));
  check
    Alcotest.(list string)
    "signals sorted uniq" [ "x"; "y" ]
    (Stl.signals (Stl.And (atom Le (Stl.Sig "y") sx, atom Ge sx (c 0.0))));
  let outputs = [ ("x", Slim.Value.Treal { lo = 0.0; hi = 1.0 }) ] in
  check Alcotest.bool "validate ok" true
    (Stl.validate ~outputs a = Ok ());
  check Alcotest.bool "validate unknown sig" true
    (Result.is_error (Stl.validate ~outputs (atom Le (Stl.Sig "nope") (c 0.0))));
  check Alcotest.bool "validate bad bounds" true
    (Result.is_error (Stl.validate ~outputs (Stl.Always (2, 1, a))))

(* --- monitor differential ----------------------------------------------- *)

let gen_sig rng names depth =
  let rec go depth =
    if depth = 0 || Util.Splitmix.int rng 3 = 0 then
      if Util.Splitmix.int rng 2 = 0 then
        Stl.Sig (List.nth names (Util.Splitmix.int rng (List.length names)))
      else Stl.Const (float_of_int (Util.Splitmix.int rng 101 - 50))
    else
      match Util.Splitmix.int rng 7 with
      | 0 -> Stl.Add (go (depth - 1), go (depth - 1))
      | 1 -> Stl.Sub (go (depth - 1), go (depth - 1))
      | 2 -> Stl.Mul (go (depth - 1), go (depth - 1))
      | 3 -> Stl.Neg (go (depth - 1))
      | 4 -> Stl.Abs (go (depth - 1))
      | 5 -> Stl.Min (go (depth - 1), go (depth - 1))
      | _ -> Stl.Max (go (depth - 1), go (depth - 1))
  in
  go depth

let gen_formula rng names depth =
  let gen_bounds () =
    let a = Util.Splitmix.int rng 7 in
    (a, a + Util.Splitmix.int rng 9)
  in
  let gen_atom () =
    let cmp =
      match Util.Splitmix.int rng 5 with
      | 0 -> Stl.Le
      | 1 -> Stl.Lt
      | 2 -> Stl.Ge
      | 3 -> Stl.Gt
      | _ -> Stl.Eq
    in
    Stl.Atom (cmp, gen_sig rng names 2, gen_sig rng names 2)
  in
  let rec go depth =
    if depth = 0 then gen_atom ()
    else
      match Util.Splitmix.int rng 8 with
      | 0 -> gen_atom ()
      | 1 -> Stl.Not (go (depth - 1))
      | 2 -> Stl.And (go (depth - 1), go (depth - 1))
      | 3 -> Stl.Or (go (depth - 1), go (depth - 1))
      | 4 -> Stl.Implies (go (depth - 1), go (depth - 1))
      | 5 ->
        let a, b = gen_bounds () in
        Stl.Always (a, b, go (depth - 1))
      | 6 ->
        let a, b = gen_bounds () in
        Stl.Eventually (a, b, go (depth - 1))
      | _ ->
        let a, b = gen_bounds () in
        Stl.Until (a, b, go (depth - 1), go (depth - 1))
  in
  go depth

(* 520 random traces x 3 random formulas: the production monitor and
   the naive reference must agree bit-for-bit at every step, and any
   nonzero finite robustness must decide the independent boolean
   semantics. *)
let test_monitor_differential () =
  let rng = Util.Splitmix.create 0xD1FF in
  for case = 1 to 520 do
    let n = 1 + Util.Splitmix.int rng 50 in
    let names =
      List.filteri
        (fun i _ -> i <= Util.Splitmix.int rng 3)
        [ "a"; "b"; "c" ]
    in
    let cols =
      List.map
        (fun name ->
          ( name,
            Array.init n (fun _ ->
                if Util.Splitmix.int rng 2 = 0 then
                  float_of_int (Util.Splitmix.int rng 41 - 20)
                else Util.Splitmix.float_in rng (-100.0) 100.0) ))
        names
    in
    let t = trace cols in
    for k = 1 to 3 do
      let f = gen_formula rng names 3 in
      let fast = Monitor.robustness_signal t f in
      for at = 0 to n - 1 do
        let slow = Monitor.robustness_naive ~at t f in
        if Int64.bits_of_float fast.(at) <> Int64.bits_of_float slow then
          Alcotest.failf
            "case %d formula %d step %d: deque %h <> naive %h on %s" case k
            at fast.(at) slow (Stl.to_string f);
        if fast.(at) <> 0.0 && Float.is_finite fast.(at) then
          if Monitor.sat ~at t f <> (fast.(at) > 0.0) then
            Alcotest.failf
              "case %d formula %d step %d: sign %h disagrees with sat on %s"
              case k at fast.(at) (Stl.to_string f)
      done
    done
  done

(* --- requirement table and falsification campaigns ---------------------- *)

let outputs_of_model model =
  match Models.Registry.find model with
  | None -> Alcotest.failf "unknown registry model %s" model
  | Some e ->
    let prog = e.Models.Registry.program () in
    List.map (fun (v : Slim.Ir.var) -> (v.Slim.Ir.name, v.Slim.Ir.ty))
      prog.Slim.Ir.outputs

let test_table_validates () =
  check Alcotest.bool "table nonempty" true
    (List.length Requirements.table >= 10);
  check Alcotest.bool "spans models" true
    (List.length (Requirements.models ()) >= 2);
  List.iter
    (fun (r : Requirements.req) ->
      match
        Stl.validate ~outputs:(outputs_of_model r.Requirements.r_model)
          r.Requirements.r_formula
      with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "%s/%s does not validate: %s" r.Requirements.r_model
          r.Requirements.r_name msg)
    Requirements.table

let small_cfg seed =
  { (Falsify.default_config ~seed) with samples = 8; descent = 8 }

(* Every seeded-faulty requirement demands an output level outside its
   declared range, so the very first trace falsifies it — and the
   acceptance gate needs at least 3 falsifications at a fixed seed. *)
let test_seeded_faults_falsified () =
  let cfg = small_cfg 1 in
  let rows =
    Falsify.campaign ~jobs:2 ~oversubscribe:true cfg Requirements.table
  in
  List.iter
    (fun (r : Falsify.row) ->
      if r.Falsify.f_fault then begin
        check Alcotest.bool
          (Fmt.str "%s/%s falsified" r.Falsify.f_model r.Falsify.f_req)
          true r.Falsify.f_falsified;
        check
          Alcotest.(option int)
          (Fmt.str "%s/%s at trace 1" r.Falsify.f_model r.Falsify.f_req)
          (Some 1) r.Falsify.f_at_trace
      end)
    rows;
  let falsified =
    List.length (List.filter (fun r -> r.Falsify.f_falsified) rows)
  in
  check Alcotest.bool "at least 3 falsified" true (falsified >= 3)

(* Determinism gate: same seed, any worker count -> byte-identical
   campaign summary (the render string the CLI prints). *)
let test_campaign_determinism () =
  let cfg = small_cfg 42 in
  let reqs = Requirements.table in
  let base = Falsify.render cfg (Falsify.campaign ~jobs:1 cfg reqs) in
  List.iter
    (fun jobs ->
      let out =
        Falsify.render cfg
          (Falsify.campaign ~jobs ~oversubscribe:true cfg reqs)
      in
      check Alcotest.string (Fmt.str "jobs 1 vs %d" jobs) base out)
    [ 2; 3; 5 ]

(* A search is a pure function of (plan, formula, seed, budgets):
   re-running a single requirement must reproduce the campaign row. *)
let test_search_replayable () =
  let cfg = small_cfg 7 in
  let rows = Falsify.campaign ~jobs:2 ~oversubscribe:true cfg Requirements.table in
  let row0 = List.hd rows in
  let replay = Falsify.run_req cfg (List.hd Requirements.table) in
  check Alcotest.string "row replays" (Falsify.render cfg [ row0 ])
    (Falsify.render cfg [ replay ])

(* --- textual (spec ...) section ------------------------------------------ *)

let doc_of_model model =
  match Models.Registry.find model with
  | None -> Alcotest.failf "unknown registry model %s" model
  | Some e ->
    {
      Text.Document.source = Text.Source.of_registry e.Models.Registry.source;
      spec =
        List.map
          (fun (r : Requirements.req) ->
            (r.Requirements.r_name, r.Requirements.r_formula))
          (Requirements.for_model model);
    }

let reparse_doc name text =
  match Text.Parser.parse_document_string text with
  | Ok doc -> doc
  | Error e ->
    Alcotest.failf "%s: reparse failed: %s" name
      (Text.Syntax.error_to_string ~file:name e)

let test_spec_roundtrip () =
  let models = Requirements.models () in
  check Alcotest.bool "at least 2 models carry specs" true
    (List.length models >= 2);
  List.iter
    (fun model ->
      let doc = doc_of_model model in
      check Alcotest.bool (Fmt.str "%s has requirements" model) true
        (doc.Text.Document.spec <> []);
      let text = Text.Printer.print_document doc in
      let doc' = reparse_doc model text in
      check Alcotest.bool
        (Fmt.str "%s: parse (print d) equal to d" model)
        true
        (Text.Document.equal doc doc');
      check Alcotest.string
        (Fmt.str "%s: print (parse s) byte-identical" model)
        text
        (Text.Printer.print_document doc'))
    models;
  (* a document without requirements prints exactly like its source,
     and plain sources parse as empty-spec documents *)
  let source = Text.Source.of_registry
      (match Models.Registry.find "AFC" with
       | Some e -> e.Models.Registry.source
       | None -> Alcotest.fail "AFC missing") in
  let doc = Text.Document.of_source source in
  check Alcotest.string "empty spec prints as source"
    (Text.Printer.print source)
    (Text.Printer.print_document doc);
  let doc' = reparse_doc "AFC" (Text.Printer.print source) in
  check Alcotest.bool "plain source parses as empty-spec document" true
    (doc'.Text.Document.spec = [])

let minimal_program =
  "(program \"p\"\n\
  \  (inputs (\"u\" (real 0 1)))\n\
  \  (outputs (\"y\" (real 0 10)))\n\
  \  (states)\n\
  \  (locals)\n\
  \  (body))\n"

let expect_doc_error name text ~code =
  match Text.Parser.parse_document_string text with
  | Ok _ -> Alcotest.failf "%s: expected %s, parse succeeded" name code
  | Error e ->
    check Alcotest.string (Fmt.str "%s: error code" name) code
      e.Text.Syntax.code

let test_spec_diagnostics () =
  (* the minimal source must itself parse before the error cases mean
     anything *)
  (match Text.Parser.parse_document_string minimal_program with
   | Ok _ -> ()
   | Error e ->
     Alcotest.failf "minimal program: %s"
       (Text.Syntax.error_to_string e));
  expect_doc_error "malformed bounds" ~code:"T401"
    (minimal_program
    ^ "(spec (req \"r\" (always 3 1 (<= (sig \"y\") (c 5)))))\n");
  expect_doc_error "negative bound" ~code:"T401"
    (minimal_program
    ^ "(spec (req \"r\" (eventually -1 4 (<= (sig \"y\") (c 5)))))\n");
  expect_doc_error "unknown signal" ~code:"T402"
    (minimal_program
    ^ "(spec (req \"r\" (<= (sig \"nope\") (c 5))))\n");
  expect_doc_error "duplicate requirement" ~code:"T203"
    (minimal_program
    ^ "(spec (req \"r\" (<= (sig \"y\") (c 5)))\n\
      \      (req \"r\" (>= (sig \"y\") (c 0))))\n");
  expect_doc_error "trailing garbage" ~code:"T106"
    (minimal_program ^ "(spec)\n(spec)\n");
  (* the plain-source parser rejects a spec section with the stable
     trailing-input diagnostic rather than silently dropping it *)
  (match
     Text.Parser.parse_string
       (minimal_program
       ^ "(spec (req \"r\" (<= (sig \"y\") (c 5))))\n")
   with
   | Ok _ -> Alcotest.fail "parse_string accepted a spec section"
   | Error e ->
     check Alcotest.string "parse_string spec = T106" "T106"
       e.Text.Syntax.code)

let () =
  Alcotest.run "spec"
    [
      ( "robustness",
        [
          Alcotest.test_case "atoms" `Quick test_atoms;
          Alcotest.test_case "connectives" `Quick test_connectives;
          Alcotest.test_case "always" `Quick test_always;
          Alcotest.test_case "eventually" `Quick test_eventually;
          Alcotest.test_case "until" `Quick test_until;
          Alcotest.test_case "structure" `Quick test_structure;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "deque vs naive differential" `Quick
            test_monitor_differential;
        ] );
      ( "falsify",
        [
          Alcotest.test_case "table validates" `Quick test_table_validates;
          Alcotest.test_case "seeded faults falsified" `Quick
            test_seeded_faults_falsified;
          Alcotest.test_case "campaign determinism" `Quick
            test_campaign_determinism;
          Alcotest.test_case "search replayable" `Quick test_search_replayable;
        ] );
      ( "text",
        [
          Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "diagnostics" `Quick test_spec_diagnostics;
        ] );
    ]
