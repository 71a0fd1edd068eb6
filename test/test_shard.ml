(* Tests for sharded campaign runs: the partial-results JSON round
   trip, and the headline contract that merging shard stripes rebuilds
   the single-process artifact byte-for-byte — plus the merge
   validation (mismatched campaigns, overlaps, gaps, junk input). *)

module Shard = Harness.Shard
module Experiment = Harness.Experiment

let check = Alcotest.check

(* Small Table III matrix: 2 models x 3 tools, SLDV deduplicated to one
   seed — big enough that every 2-way stripe is non-trivial, small
   enough for a quick test. *)
let t3_spec =
  Shard.spec ~budget:30.0 ~seeds:[ 1; 2 ]
    ~models:[ "CPUTask"; "AFC" ] Shard.Table3

let merge_t3 parts =
  match Shard.merge_strings parts with
  | Shard.M_table3 (rows, text) -> (rows, text)
  | _ -> Alcotest.fail "merge returned the wrong artifact kind"

(* The headline guarantee: merge(shard 0/2, shard 1/2) is byte-for-byte
   the jobs=1 output, partial order notwithstanding. *)
let test_table3_shards_byte_identical () =
  let _, seq_text =
    Experiment.table3 ~budget:30.0 ~seeds:[ 1; 2 ]
      ~models:[ "CPUTask"; "AFC" ] ~jobs:1 ()
  in
  let p0 = Shard.run_partial ~jobs:1 ~shard:(0, 2) t3_spec in
  let p1 = Shard.run_partial ~jobs:1 ~shard:(1, 2) t3_spec in
  let _, merged = merge_t3 [ p0; p1 ] in
  check Alcotest.string "merge(0/2, 1/2) = jobs=1 bytes" seq_text merged;
  let _, merged_rev = merge_t3 [ p1; p0 ] in
  check Alcotest.string "partial order irrelevant" seq_text merged_rev

let test_table3_single_shard_roundtrip () =
  (* shard 0/1 is the whole matrix: one partial must merge alone *)
  let _, seq_text =
    Experiment.table3 ~budget:30.0 ~seeds:[ 1; 2 ]
      ~models:[ "CPUTask"; "AFC" ] ~jobs:1 ()
  in
  let whole = Shard.run_partial ~jobs:1 ~shard:(0, 1) t3_spec in
  let rows, merged = merge_t3 [ whole ] in
  check Alcotest.string "merge of 0/1 = jobs=1 bytes" seq_text merged;
  check Alcotest.int "rows present" 6 (List.length rows)

let test_many_stripes () =
  (* more shards than some tools have jobs: empty stripes must still
     merge; njobs for this spec is 2 models * (1 + 2 + 2) = 10 *)
  check Alcotest.int "njobs" 10 (Shard.njobs t3_spec);
  let n = 7 in
  let parts =
    List.init n (fun i -> Shard.run_partial ~jobs:1 ~shard:(i, n) t3_spec)
  in
  let _, seq_text =
    Experiment.table3 ~budget:30.0 ~seeds:[ 1; 2 ]
      ~models:[ "CPUTask"; "AFC" ] ~jobs:1 ()
  in
  let _, merged = merge_t3 parts in
  check Alcotest.string "7-way stripes merge to jobs=1 bytes" seq_text merged

let test_fig4_shards_byte_identical () =
  let spec =
    Shard.spec ~budget:30.0 ~seed:1 ~models:[ "CPUTask" ] Shard.Fig4
  in
  let seq_panels, seq_csvs =
    Experiment.fig4 ~budget:30.0 ~seed:1 ~models:[ "CPUTask" ] ~jobs:1 ()
  in
  let p0 = Shard.run_partial ~jobs:1 ~shard:(0, 2) spec in
  let p1 = Shard.run_partial ~jobs:1 ~shard:(1, 2) spec in
  match Shard.merge_strings [ p1; p0 ] with
  | Shard.M_fig4 (panels, csvs) ->
    check Alcotest.string "panels byte-identical" seq_panels panels;
    check
      Alcotest.(list (pair string string))
      "per-model CSVs byte-identical" seq_csvs csvs
  | _ -> Alcotest.fail "merge returned the wrong artifact kind"

let test_ablations_shards_byte_identical () =
  let spec =
    Shard.spec ~budget:30.0 ~seeds:[ 1 ] ~models:[ "CPUTask" ] Shard.Ablations
  in
  let seq_text =
    Experiment.ablations ~budget:30.0 ~seeds:[ 1 ] ~models:[ "CPUTask" ]
      ~jobs:1 ()
  in
  let p0 = Shard.run_partial ~jobs:1 ~shard:(0, 2) spec in
  let p1 = Shard.run_partial ~jobs:1 ~shard:(1, 2) spec in
  match Shard.merge_strings [ p0; p1 ] with
  | Shard.M_ablations text ->
    check Alcotest.string "ablations byte-identical" seq_text text
  | _ -> Alcotest.fail "merge returned the wrong artifact kind"

(* Partials written by the previous, compact writer (no spaces, floats
   as %.17g, a float budget of 30 printed as "30"), one per line:
   table3 shards 0/2 and 1/2 of [t3_spec], fig4 shard 0/2 and ablations
   shard 0/2 of the specs above.  They must still merge, alone and mixed
   with partials from the current writer. *)
let legacy_partials () =
  In_channel.with_open_bin (Golden.path "legacy/shard_partials.jsonl") In_channel.input_lines

let test_legacy_partials_merge () =
  let t3_0, t3_1, f4_0, ab_0 =
    match legacy_partials () with
    | [ a; b; c; d ] -> (a, b, c, d)
    | _ -> Alcotest.fail "expected four legacy partials"
  in
  let _, seq_text =
    Experiment.table3 ~budget:30.0 ~seeds:[ 1; 2 ]
      ~models:[ "CPUTask"; "AFC" ] ~jobs:1 ()
  in
  check Alcotest.string "legacy table3 pair" seq_text
    (snd (merge_t3 [ t3_0; t3_1 ]));
  check Alcotest.string "legacy + current table3" seq_text
    (snd
       (merge_t3 [ t3_0; Shard.run_partial ~jobs:1 ~shard:(1, 2) t3_spec ]));
  let f4 = Shard.spec ~budget:30.0 ~seed:1 ~models:[ "CPUTask" ] Shard.Fig4 in
  let seq_panels, _ =
    Experiment.fig4 ~budget:30.0 ~seed:1 ~models:[ "CPUTask" ] ~jobs:1 ()
  in
  (match
     Shard.merge_strings [ f4_0; Shard.run_partial ~jobs:1 ~shard:(1, 2) f4 ]
   with
   | Shard.M_fig4 (panels, _) ->
     check Alcotest.string "legacy + current fig4" seq_panels panels
   | _ -> Alcotest.fail "merge returned the wrong artifact kind");
  let ab =
    Shard.spec ~budget:30.0 ~seeds:[ 1 ] ~models:[ "CPUTask" ] Shard.Ablations
  in
  match
    Shard.merge_strings [ ab_0; Shard.run_partial ~jobs:1 ~shard:(1, 2) ab ]
  with
  | Shard.M_ablations text ->
    check Alcotest.string "legacy + current ablations"
      (Experiment.ablations ~budget:30.0 ~seeds:[ 1 ] ~models:[ "CPUTask" ]
         ~jobs:1 ())
      text
  | _ -> Alcotest.fail "merge returned the wrong artifact kind"

(* merge validation: anything that is not a full, disjoint, same-
   campaign cover must be refused *)

let expect_malformed name thunk =
  match thunk () with
  | _ -> Alcotest.fail (name ^ ": expected Shard.Malformed")
  | exception Shard.Malformed _ -> ()

let test_merge_validation () =
  let p0 = Shard.run_partial ~jobs:1 ~shard:(0, 2) t3_spec in
  let p1 = Shard.run_partial ~jobs:1 ~shard:(1, 2) t3_spec in
  expect_malformed "gap (missing stripe)" (fun () ->
      Shard.merge_strings [ p0 ]);
  expect_malformed "overlap (duplicate stripe)" (fun () ->
      Shard.merge_strings [ p0; p1; p1 ]);
  expect_malformed "no partials" (fun () -> Shard.merge_strings []);
  expect_malformed "junk input" (fun () ->
      Shard.merge_strings [ "not json at all" ]);
  expect_malformed "truncated json" (fun () ->
      Shard.merge_strings [ String.sub p0 0 (String.length p0 / 2) ]);
  (* different campaign: same matrix, different budget *)
  let other =
    Shard.spec ~budget:60.0 ~seeds:[ 1; 2 ] ~models:[ "CPUTask"; "AFC" ]
      Shard.Table3
  in
  let q1 = Shard.run_partial ~jobs:1 ~shard:(1, 2) other in
  expect_malformed "mismatched campaigns" (fun () ->
      Shard.merge_strings [ p0; q1 ])

(* A campaign over no seeds averages nothing; its partials are refused
   rather than merged into NaN cells (SLDV still has its one job). *)
let test_empty_seeds_refused () =
  List.iter
    (fun kind ->
      let spec = Shard.spec ~budget:30.0 ~seeds:[] ~models:[ "AFC" ] kind in
      let part = Shard.run_partial ~jobs:1 ~shard:(0, 1) spec in
      expect_malformed
        (Fmt.str "empty seed list (%s)" (Shard.kind_name kind))
        (fun () -> Shard.merge_strings [ part ]))
    [ Shard.Table3; Shard.Ablations ]

(* A partial over an empty model list, or over a model the registry
   does not know, is refused rather than rendered as a table with no
   rows for it (and "+0%" average improvements). *)
let test_bad_models_refused () =
  let module J = Util.Json in
  let empty =
    Shard.run_partial ~jobs:1 ~shard:(0, 1)
      (Shard.spec ~budget:30.0 ~seeds:[ 1 ] ~models:[] Shard.Table3)
  in
  let with_models models =
    match J.of_string empty with
    | Ok (J.Obj fields) ->
      J.to_string
        (J.Obj
           (List.map
              (fun (k, v) ->
                if k = "models" then (k, J.List (List.map (fun m -> J.String m) models))
                else (k, v))
              fields))
    | _ -> Alcotest.fail "partial is not a JSON object"
  in
  expect_malformed "empty model list" (fun () -> Shard.merge_strings [ empty ]);
  expect_malformed "unknown model" (fun () ->
      Shard.merge_strings [ with_models [ "nope" ] ]);
  Alcotest.check_raises "library path"
    (Invalid_argument
       (Fmt.str "unknown model nope; known models: %s"
          (String.concat ", " Models.Registry.names)))
    (fun () -> ignore (Experiment.table3 ~budget:30.0 ~seeds:[ 1 ] ~models:[ "nope" ] ()))

let test_run_partial_validation () =
  Alcotest.check_raises "shard index out of range"
    (Invalid_argument "Shard.run_partial: shard must satisfy 0 <= i < n")
    (fun () -> ignore (Shard.run_partial ~shard:(2, 2) t3_spec))

let test_kind_names () =
  List.iter
    (fun k ->
      check Alcotest.bool
        (Fmt.str "kind %s round-trips" (Shard.kind_name k))
        true
        (Shard.kind_of_name (Shard.kind_name k) = Some k))
    [ Shard.Table3; Shard.Fig4; Shard.Ablations ];
  check Alcotest.bool "unknown kind" true (Shard.kind_of_name "nope" = None)

let () =
  Alcotest.run "shard"
    [
      ( "byte-identity",
        [
          Alcotest.test_case "table3 merge(0/2,1/2) = jobs=1" `Quick
            test_table3_shards_byte_identical;
          Alcotest.test_case "table3 single-shard round trip" `Quick
            test_table3_single_shard_roundtrip;
          Alcotest.test_case "table3 7-way stripes" `Quick test_many_stripes;
          Alcotest.test_case "fig4 merge = jobs=1" `Quick
            test_fig4_shards_byte_identical;
          Alcotest.test_case "ablations merge = jobs=1" `Quick
            test_ablations_shards_byte_identical;
          Alcotest.test_case "legacy partials merge" `Quick
            test_legacy_partials_merge;
        ] );
      ( "validation",
        [
          Alcotest.test_case "merge refuses bad partial sets" `Quick
            test_merge_validation;
          Alcotest.test_case "unknown or empty model list refused" `Quick
            test_bad_models_refused;
          Alcotest.test_case "empty seed list refused" `Quick
            test_empty_seeds_refused;
          Alcotest.test_case "run_partial bounds" `Quick
            test_run_partial_validation;
          Alcotest.test_case "kind names" `Quick test_kind_names;
        ] );
    ]
