(* Tests for the experiment harness: table rendering, plotting, and the
   experiment plumbing (with tiny budgets so the suite stays fast). *)

let check = Alcotest.check

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_text_table () =
  let t =
    Telemetry.Text_table.render
      ~header:[ "Model"; "Coverage" ]
      [ [ "CPUTask"; "100%" ]; [ "AFC"; "83%" ] ]
  in
  check Alcotest.bool "has header" true (contains "Model" t);
  check Alcotest.bool "has row" true (contains "CPUTask" t);
  (* all lines are equally wide *)
  let widths =
    String.split_on_char '\n' t
    |> List.filter (fun l -> l <> "")
    |> List.map String.length
    |> List.sort_uniq compare
  in
  check Alcotest.int "aligned" 1 (List.length widths)

let test_ascii_plot () =
  let series =
    [
      {
        Harness.Ascii_plot.s_label = "up";
        s_glyph = '*';
        s_points = [ (0.0, 10.0); (100.0, 50.0); (200.0, 90.0) ];
        s_markers = [ (100.0, '^') ];
      };
    ]
  in
  let plot = Harness.Ascii_plot.render ~width:40 ~height:8 ~x_max:300.0 series in
  check Alcotest.bool "has curve glyph" true (contains "*" plot);
  check Alcotest.bool "has marker" true (contains "^" plot);
  check Alcotest.bool "has legend" true (contains "up" plot)

let test_plot_step_interpolation () =
  let v = Harness.Ascii_plot.value_at [ (10.0, 20.0); (50.0, 80.0) ] in
  check (Alcotest.float 1e-9) "before first" 0.0 (v 5.0);
  check (Alcotest.float 1e-9) "between" 20.0 (v 30.0);
  check (Alcotest.float 1e-9) "after last" 80.0 (v 100.0)

let test_table2_lists_all_models () =
  let t = Harness.Experiment.table2 () in
  List.iter
    (fun name -> check Alcotest.bool name true (contains name t))
    Models.Registry.names

let test_run_tool_quick () =
  let entry = Option.get (Models.Registry.find "AFC") in
  List.iter
    (fun tool ->
      let r = Harness.Experiment.run_tool ~budget:30.0 ~seed:1 tool entry in
      check Alcotest.bool
        (Harness.Experiment.tool_name tool ^ " produced a tracker")
        true
        (Stcg.Run_result.decision_pct r >= 0.0))
    [
      Harness.Experiment.STCG; Harness.Experiment.SLDV;
      Harness.Experiment.SimCoTest; Harness.Experiment.STCG_hybrid;
    ]

let test_average_seed_count () =
  let entry = Option.get (Models.Registry.find "AFC") in
  let a =
    Harness.Experiment.average ~budget:20.0 ~seeds:[ 1; 2 ]
      Harness.Experiment.SimCoTest entry
  in
  check Alcotest.int "two runs averaged" 2 a.Harness.Experiment.a_runs;
  (* SLDV collapses to a single run: it is deterministic *)
  let s =
    Harness.Experiment.average ~budget:20.0 ~seeds:[ 1; 2; 3 ]
      Harness.Experiment.SLDV entry
  in
  check Alcotest.int "sldv runs once" 1 s.Harness.Experiment.a_runs

let test_registry_lookup () =
  check Alcotest.bool "case-insensitive find" true
    (Models.Registry.find "cputask" <> None);
  check Alcotest.bool "unknown is None" true (Models.Registry.find "nope" = None);
  check Alcotest.int "eight models" 8 (List.length Models.Registry.entries)

(* Table I and Figure 3 are pure functions of their seed: two calls
   render the same bytes, and each names its artifact. *)
let test_table1_fig3 () =
  let t1 = Harness.Experiment.table1 ~budget:120. ~seed:1 () in
  check Alcotest.string "table1 deterministic" t1
    (Harness.Experiment.table1 ~budget:120. ~seed:1 ());
  check Alcotest.bool "table1 title" true (contains "Table I" t1);
  let explored =
    Scanf.sscanf
      (List.find (contains "states explored") (String.split_on_char '\n' t1))
      "states explored: %d" Fun.id
  in
  check Alcotest.bool "table1 explores states" true (explored > 0);
  let f3 = Harness.Experiment.fig3 () in
  check Alcotest.string "fig3 deterministic" f3 (Harness.Experiment.fig3 ());
  check Alcotest.bool "fig3 panel (a)" true (contains "Figure 3(a)" f3);
  check Alcotest.bool "fig3 panel (b)" true (contains "Figure 3(b)" f3)

let test_fig4_csv_format () =
  let _, csvs =
    Harness.Experiment.fig4 ~budget:20.0 ~seed:1 ~models:[ "AFC" ] ()
  in
  match csvs with
  | [ (name, csv) ] ->
    check Alcotest.string "model name" "AFC" name;
    check Alcotest.bool "csv header" true
      (contains "tool,time_s,decision_pct" csv)
  | _ -> Alcotest.fail "expected one csv"

let () =
  Alcotest.run "harness"
    [
      ( "rendering",
        [
          Alcotest.test_case "text table" `Quick test_text_table;
          Alcotest.test_case "ascii plot" `Quick test_ascii_plot;
          Alcotest.test_case "step interpolation" `Quick test_plot_step_interpolation;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table2" `Quick test_table2_lists_all_models;
          Alcotest.test_case "run tools" `Quick test_run_tool_quick;
          Alcotest.test_case "averaging" `Quick test_average_seed_count;
          Alcotest.test_case "registry" `Quick test_registry_lookup;
          Alcotest.test_case "fig4 csv" `Quick test_fig4_csv_format;
          Alcotest.test_case "table1 + fig3" `Quick test_table1_fig3;
        ] );
    ]
