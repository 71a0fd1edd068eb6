(* Tests for the telemetry subsystem: instrument semantics, the
   determinism contract across worker counts, span nesting, and the
   Chrome trace exporter's JSON. *)

let check = Alcotest.check

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* every test starts from a clean, enabled state and leaves telemetry
   disabled for the next one *)
let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    f

(* --- minimal JSON syntax checker (no json library in the image) ------- *)

exception Bad_json of int

let json_valid s =
  let n = String.length s in
  let i = ref 0 in
  let peek () = if !i < n then Some s.[!i] else None in
  let advance () = incr i in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else raise (Bad_json !i)
  in
  let literal lit =
    let l = String.length lit in
    if !i + l <= n && String.sub s !i l = lit then i := !i + l
    else raise (Bad_json !i)
  in
  let parse_string () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> raise (Bad_json !i)
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
           advance ();
           go ()
         | Some 'u' ->
           advance ();
           for _ = 1 to 4 do
             match peek () with
             | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
             | _ -> raise (Bad_json !i)
           done;
           go ()
         | _ -> raise (Bad_json !i))
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let parse_number () =
    let digits () =
      let any = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          any := true;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if not !any then raise (Bad_json !i)
    in
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
     | Some ('e' | 'E') ->
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       digits ()
     | _ -> ())
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else begin
        let rec members () =
          skip_ws ();
          parse_string ();
          skip_ws ();
          expect ':';
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> raise (Bad_json !i)
        in
        members ()
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else begin
        let rec elements () =
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> raise (Bad_json !i)
        in
        elements ()
      end
    | Some '"' -> parse_string ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> raise (Bad_json !i)
  in
  match
    parse_value ();
    skip_ws ()
  with
  | () -> !i = n
  | exception Bad_json _ -> false

let test_json_checker_sanity () =
  check Alcotest.bool "object" true
    (json_valid {|{"a": [1, 2.5, -3e2], "b": "x\nA", "c": true}|});
  check Alcotest.bool "trailing junk" false (json_valid "{} x");
  check Alcotest.bool "unclosed" false (json_valid {|{"a": 1|});
  check Alcotest.bool "bare word" false (json_valid "undefined")

(* --- the Util.Json codec, checked against [json_valid] ---------------- *)

module J = Util.Json

(* structural equality with floats compared bit for bit *)
let rec json_equal a b =
  match (a, b) with
  | J.Float x, J.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | J.List xs, J.List ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | J.Obj xs, J.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> k = l && json_equal x y) xs ys
  | _ -> a = b

let all_bytes = String.init 256 Char.chr

let gen_json =
  let open QCheck.Gen in
  let finite f = if Float.is_finite f then f else 0.5 in
  let float_gen =
    oneof
      [
        oneofl
          [
            0.0; -0.0; 5e-324; 2.2250738585072009e-308; min_float; max_float;
            -.max_float; 3600.0; 0.1; 1e21; 4.611686018427388e18;
          ];
        map (fun b -> finite (Int64.float_of_bits b)) ui64;
        map finite float;
      ]
  in
  let str = oneof [ string_size ~gen:char (int_bound 12); return all_bytes ] in
  let leaf =
    oneof
      [
        return J.Null; map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) (oneof [ int; oneofl [ max_int; min_int; 0 ] ]);
        map (fun f -> J.Float f) float_gen; map (fun s -> J.String s) str;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (3, leaf);
               (1, map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 4))));
               ( 1,
                 map
                   (fun l -> J.Obj l)
                   (list_size (int_bound 4) (pair str (self (n / 4)))) );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"of_string (to_string v) = v, floats bit for bit"
    ~count:500
    (QCheck.make ~print:J.to_string gen_json)
    (fun v ->
      let text = J.to_string v in
      json_valid text
      && (not (String.contains text '\n'))
      && match J.of_string text with Ok v' -> json_equal v v' | Error _ -> false)

let test_json_printer () =
  let pr v = J.to_string v in
  check Alcotest.string "layout" {|{"a": [1, 2.5, null], "b": {}, "c": []}|}
    (pr
       (J.Obj
          [
            ("a", J.List [ J.Int 1; J.Float 2.5; J.Null ]); ("b", J.Obj []);
            ("c", J.List []);
          ]));
  check Alcotest.string "integral floats keep a point" "[3600.0, -0.0, 1e+21]"
    (pr (J.List [ J.Float 3600.0; J.Float (-0.0); J.Float 1e21 ]));
  check Alcotest.string "shortest exact digits" "[0.1, 0.30000000000000004]"
    (pr (J.List [ J.Float 0.1; J.Float (0.1 +. 0.2) ]));
  check Alcotest.string "escapes" {|"q\"b\\n\nr\rt\t\u0001\u001f é"|}
    (pr (J.String "q\"b\\n\nr\rt\t\001\031 \xc3\xa9"));
  List.iter
    (fun f ->
      match J.to_string (J.Float f) with
      | _ -> Alcotest.failf "printed non-finite %h" f
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_json_parser () =
  let ok text expected =
    match J.of_string text with
    | Ok v ->
      check Alcotest.bool (Fmt.str "%S parses as expected" text) true
        (json_equal v expected)
    | Error m -> Alcotest.failf "%S: %s" text m
  in
  ok " [1, -0, 1.0, 2e3, 4611686018427387904] "
    (J.List
       [ J.Int 1; J.Int 0; J.Float 1.0; J.Float 2000.0; J.Float 4611686018427387904.0 ]);
  ok {|"a\/b\b\f"|} (J.String "a/b\b\012");
  ok {|"caf\u00e9 \u20AC \ud83d\ude00"|}
    (J.String "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80");
  ok {|{"k": 1, "k": 2}|} (J.Obj [ ("k", J.Int 1); ("k", J.Int 2) ]);
  List.iter
    (fun text ->
      match J.of_string text with
      | Ok _ -> Alcotest.failf "%S accepted" text
      | Error m ->
        check Alcotest.bool (Fmt.str "%S error names a byte" text) true
          (contains "at byte" m))
    [
      "{} x"; "[1] [2]"; "NaN"; "-Infinity"; "Infinity"; {|"abc|}; {|{"a": "b|};
      {|"\ud83d"|}; {|"\ude00"|}; {|"\ud83dA"|}; "01"; "-01"; "[00]";
      "1."; ".5"; "+1"; "1e"; "[1,]"; {|{"a" 1}|}; ""; "tru"; "1e400";
      "\"raw\ttab\""; {|"\x"|}; {|"\u12"|};
    ]

let test_json_accessors () =
  let v =
    match J.of_string {|{"i": 3, "f": 3600, "s": "x", "l": [true]}|} with
    | Ok v -> v
    | Error m -> Alcotest.fail m
  in
  check Alcotest.int "int" 3 (J.int "i" (J.member "i" v));
  check (Alcotest.float 0.0) "float accepts Int" 3600.0
    (J.float "f" (J.member "f" v));
  check Alcotest.string "string" "x" (J.string "s" (J.member "s" v));
  check Alcotest.int "list" 1 (List.length (J.list "l" (J.member "l" v)));
  let names_key what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Type_error" what
    | exception J.Type_error m ->
      check Alcotest.bool (what ^ " names the key") true (contains "\"s\"" m)
  in
  names_key "missing" (fun () -> ignore (J.member "s" (J.Obj [])));
  names_key "not an object" (fun () -> ignore (J.member "s" (J.Int 1)));
  names_key "wrong type" (fun () -> ignore (J.int "s" (J.member "s" v)))

(* The committed regression corpus loads, and every entry re-serialises
   to the bytes on disk. *)
let corpus_file = Golden.path "corpus/corpus.jsonl"

let test_corpus_file_roundtrip () =
  let lines =
    In_channel.with_open_bin corpus_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  check Alcotest.bool "corpus has entries" true (lines <> []);
  List.iter
    (fun line ->
      match Fuzzer.Corpus.of_line line with
      | Ok e -> check Alcotest.string "to_line byte-identical" line (Fuzzer.Corpus.to_line e)
      | Error m -> Alcotest.failf "%s: %s" line m)
    lines;
  match Fuzzer.Corpus.load corpus_file with
  | Ok es -> check Alcotest.int "load sees every entry" (List.length lines) (List.length es)
  | Error m -> Alcotest.fail m

let test_corpus_unicode_messages () =
  let message escaped =
    match
      Fuzzer.Corpus.of_line
        (Fmt.str
           {|{"schema_version": 1, "seed": 0, "index": 0, "oracle": "exec", "max_steps": 12, "message": "%s"}|}
           escaped)
    with
    | Ok e -> e.Fuzzer.Corpus.e_message
    | Error m -> Alcotest.failf "%s: %s" escaped m
  in
  check Alcotest.string "\\u00e9 decodes to UTF-8" "caf\xc3\xa9"
    (message {|caf\u00e9|});
  check Alcotest.string "\\/ is an escape" "a/b" (message {|a\/b|});
  check Alcotest.string "surrogate pair decodes to UTF-8" "\xf0\x9f\x98\x80"
    (message {|\ud83d\ude00|})

(* --- instruments -------------------------------------------------------- *)

let test_counter_basics () =
  with_telemetry @@ fun () ->
  let c = Telemetry.Counter.make "test.counter" in
  check Alcotest.int "starts at zero" 0 (Telemetry.Counter.total c);
  Telemetry.Counter.incr c;
  Telemetry.Counter.add c 41;
  check Alcotest.int "accumulates" 42 (Telemetry.Counter.total c);
  let c' = Telemetry.Counter.make "test.counter" in
  Telemetry.Counter.incr c';
  check Alcotest.int "make is idempotent by name" 43
    (Telemetry.Counter.total c)

let test_disabled_is_noop () =
  Telemetry.reset ();
  Telemetry.disable ();
  let c = Telemetry.Counter.make "test.off" in
  let h = Telemetry.Histogram.make "test.off_hist" in
  let sp = Telemetry.Span.make "test.off_span" in
  Telemetry.Counter.incr c;
  Telemetry.Histogram.observe h 7;
  let note_forced = ref false in
  let r =
    Telemetry.Span.with_ sp
      ~note:(fun () ->
        note_forced := true;
        "n")
      (fun () -> 99)
  in
  check Alcotest.int "span passes result through" 99 r;
  check Alcotest.int "counter untouched" 0 (Telemetry.Counter.total c);
  check Alcotest.bool "note not forced when off" false !note_forced;
  check Alcotest.int "no span recorded" 0
    (List.length (Telemetry.span_records ()))

let test_histogram_stats () =
  with_telemetry @@ fun () ->
  let h = Telemetry.Histogram.make "test.hist" in
  List.iter (Telemetry.Histogram.observe h) [ 0; 1; 2; 3; 100 ];
  let snap = Telemetry.snapshot () in
  let stats = List.assoc "test.hist" snap.Telemetry.sn_histograms in
  check Alcotest.int "count" 5 stats.Telemetry.h_count;
  check Alcotest.int "sum" 106 stats.Telemetry.h_sum;
  check Alcotest.int "max" 100 stats.Telemetry.h_max;
  (* p50 of [0;1;2;3;100] lands in the [2,3] bucket (top 3) *)
  check Alcotest.int "p50 bucket top" 3 stats.Telemetry.h_p50;
  (* p99 lands in the bucket holding 100: [64,127] *)
  check Alcotest.int "p99 bucket top" 127 stats.Telemetry.h_p99

let test_nondet_excluded () =
  with_telemetry @@ fun () ->
  let det = Telemetry.Counter.make "test.det" in
  let nd = Telemetry.Counter.make ~nondet:true "test.nondet" in
  Telemetry.Counter.incr det;
  Telemetry.Counter.incr nd;
  let s = Telemetry.snapshot () in
  check Alcotest.bool "det included" true
    (List.mem_assoc "test.det" s.Telemetry.sn_counters);
  check Alcotest.bool "nondet excluded" false
    (List.mem_assoc "test.nondet" s.Telemetry.sn_counters);
  let s' = Telemetry.snapshot ~nondet:true () in
  check Alcotest.bool "nondet included on request" true
    (List.mem_assoc "test.nondet" s'.Telemetry.sn_counters);
  let r = Telemetry.render_deterministic () in
  check Alcotest.bool "render_deterministic excludes nondet" false
    (contains "test.nondet" r)

(* --- spans -------------------------------------------------------------- *)

let test_span_nesting () =
  with_telemetry @@ fun () ->
  let outer = Telemetry.Span.make "test.outer" in
  let inner = Telemetry.Span.make "test.inner" in
  Telemetry.Span.with_ outer (fun () ->
      Telemetry.Span.with_ inner (fun () -> ());
      Telemetry.Span.with_ inner (fun () -> ()));
  (* a span body that raises must still be recorded, at the right depth *)
  (try
     Telemetry.Span.with_ outer (fun () ->
         Telemetry.Span.with_ inner (fun () -> failwith "boom"))
   with Failure _ -> ());
  let records = Telemetry.span_records () in
  check Alcotest.int "all spans recorded" 5 (List.length records);
  let of_name n =
    List.filter (fun (r : Telemetry.span_record) -> r.sr_name = n) records
  in
  List.iter
    (fun (r : Telemetry.span_record) ->
      check Alcotest.int ("depth of " ^ r.sr_name)
        (if r.sr_name = "test.outer" then 0 else 1)
        r.sr_depth;
      check Alcotest.bool "non-negative duration" true (r.sr_dur_ns >= 0L))
    records;
  (* inner spans lie within some outer span's window *)
  let within (o : Telemetry.span_record) (i : Telemetry.span_record) =
    i.sr_start_ns >= o.sr_start_ns
    && Int64.add i.sr_start_ns i.sr_dur_ns
       <= Int64.add o.sr_start_ns o.sr_dur_ns
  in
  List.iter
    (fun i ->
      check Alcotest.bool "inner nested in an outer" true
        (List.exists (fun o -> within o i) (of_name "test.outer")))
    (of_name "test.inner");
  let totals = Telemetry.span_totals () in
  let count n =
    let cnt, _ =
      List.fold_left
        (fun acc (name, c, t) -> if name = n then (c, t) else acc)
        (0, 0L) totals
    in
    cnt
  in
  check Alcotest.int "outer total count" 2 (count "test.outer");
  check Alcotest.int "inner total count" 3 (count "test.inner")

let test_span_retention_aggregate () =
  with_telemetry @@ fun () ->
  check Alcotest.bool "records is the default" true
    (Telemetry.span_retention () = `Records);
  Telemetry.set_span_retention `Aggregate;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_span_retention `Records)
    (fun () ->
      let sp = Telemetry.Span.make "test.retained" in
      for _ = 1 to 10 do
        Telemetry.Span.with_ sp (fun () -> ())
      done;
      (* aggregate mode retains O(names), not O(spans): no records, but
         the same (count, total) the records would have produced *)
      check Alcotest.int "no records retained" 0
        (List.length (Telemetry.span_records ()));
      let count, total =
        List.fold_left
          (fun acc (name, c, t) ->
            if name = "test.retained" then (c, t) else acc)
          (0, 0L) (Telemetry.span_totals ())
      in
      check Alcotest.int "aggregate count" 10 count;
      check Alcotest.bool "aggregate total accumulates" true (total >= 0L))

(* --- determinism across worker counts ----------------------------------- *)

let table3_smoke ~jobs =
  Telemetry.reset ();
  Telemetry.enable ();
  let _, text =
    (* oversubscribed pool: jobs=4 must mean four real domains even
       where the core-count clamp would fold this back to sequential *)
    Harness.Pool.with_pool ~jobs ~oversubscribe:true (fun pool ->
        Harness.Experiment.table3 ~budget:20.0 ~seeds:[ 1; 2 ]
          ~models:[ "CPUTask" ] ~pool ())
  in
  let det = Telemetry.render_deterministic () in
  Telemetry.disable ();
  Telemetry.reset ();
  (text, det)

let test_determinism_across_jobs () =
  let text1, det1 = table3_smoke ~jobs:1 in
  let text4, det4 = table3_smoke ~jobs:4 in
  check Alcotest.string "table3 byte-identical" text1 text4;
  check Alcotest.string "deterministic telemetry byte-identical" det1 det4;
  check Alcotest.bool "engine counters present" true
    (contains "engine.solve_attempts" det1)

(* --- exporters ----------------------------------------------------------- *)

let test_chrome_trace_valid_json () =
  with_telemetry @@ fun () ->
  let sp = Telemetry.Span.make "test.traced" in
  let c = Telemetry.Counter.make "test.traced_counter" in
  Telemetry.Span.with_ sp
    ~note:(fun () -> "needs \"escaping\"\nand\ttabs")
    (fun () -> Telemetry.Counter.incr c);
  Telemetry.Span.with_ sp (fun () -> ());
  let doc = Telemetry.Chrome_trace.to_string () in
  check Alcotest.bool "trace parses as JSON" true (json_valid doc);
  check Alcotest.bool "has traceEvents" true (contains "\"traceEvents\"" doc);
  check Alcotest.bool "has complete events" true (contains "\"ph\": \"X\"" doc);
  check Alcotest.bool "has span name" true (contains "test.traced" doc);
  check Alcotest.bool "has counter args" true (contains "test.traced_counter" doc)

let test_json_summary_valid () =
  with_telemetry @@ fun () ->
  let c = Telemetry.Counter.make "test.sum_counter" in
  let h = Telemetry.Histogram.make "test.sum_hist" in
  let sp = Telemetry.Span.make "test.sum_span" in
  Telemetry.Counter.add c 5;
  Telemetry.Histogram.observe h 12;
  Telemetry.Span.with_ sp (fun () -> ());
  let doc = Util.Json.to_string (Telemetry.json_summary ()) in
  check Alcotest.bool "summary parses as JSON" true (json_valid doc);
  check Alcotest.bool "has counters key" true (contains "\"counters\"" doc);
  check Alcotest.bool "has histograms key" true (contains "\"histograms\"" doc);
  check Alcotest.bool "has spans key" true (contains "\"spans\"" doc)

let () =
  Alcotest.run "telemetry"
    [
      ( "json-checker",
        [ Alcotest.test_case "sanity" `Quick test_json_checker_sanity ] );
      ( "json-codec",
        [
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          Alcotest.test_case "printer" `Quick test_json_printer;
          Alcotest.test_case "strict parser" `Quick test_json_parser;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "corpus file round trip" `Quick
            test_corpus_file_roundtrip;
          Alcotest.test_case "corpus unicode messages" `Quick
            test_corpus_unicode_messages;
        ] );
      ( "instruments",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "disabled no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "histogram stats" `Quick test_histogram_stats;
          Alcotest.test_case "nondet excluded" `Quick test_nondet_excluded;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "aggregate retention" `Quick
            test_span_retention_aggregate;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "table3 jobs=1 vs jobs=4" `Slow
            test_determinism_across_jobs;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace JSON" `Quick
            test_chrome_trace_valid_json;
          Alcotest.test_case "json summary" `Quick test_json_summary_valid;
        ] );
    ]
