module Registry = Models.Registry

type kind = Table3 | Fig4 | Ablations

let kind_name = function
  | Table3 -> "table3"
  | Fig4 -> "fig4"
  | Ablations -> "ablations"

let kind_of_name = function
  | "table3" -> Some Table3
  | "fig4" -> Some Fig4
  | "ablations" -> Some Ablations
  | _ -> None

type spec = {
  sp_kind : kind;
  sp_budget : float;
  sp_seeds : int list;
  sp_seed : int;
  sp_models : string list option;
}

let spec ?(budget = 3600.0) ?seeds ?(seed = 1) ?models kind =
  let seeds =
    match (seeds, kind) with
    | Some s, _ -> s
    | None, Ablations -> Experiment.ab_default_seeds
    | None, (Table3 | Fig4) -> Experiment.t3_default_seeds
  in
  { sp_kind = kind; sp_budget = budget; sp_seeds = seeds; sp_seed = seed;
    sp_models = models }

let njobs spec =
  let models = spec.sp_models in
  match spec.sp_kind with
  | Table3 -> Experiment.table3_njobs ~seeds:spec.sp_seeds ?models ()
  | Fig4 -> Experiment.fig4_njobs ?models ()
  | Ablations -> Experiment.ablations_njobs ~seeds:spec.sp_seeds ?models ()

exception Malformed of string

let malformed fmt = Fmt.kstr (fun s -> raise (Malformed s)) fmt

(* --- the partial format ------------------------------------------------- *)

module J = Util.Json

let format_tag = "stcg-shard/1"

let header_of_spec spec ~shard:(si, sn) =
  [
    ("format", J.String format_tag);
    ("kind", J.String (kind_name spec.sp_kind));
    ("budget", J.Float spec.sp_budget);
    ("seeds", J.List (List.map (fun s -> J.Int s) spec.sp_seeds));
    ("seed", J.Int spec.sp_seed);
    ( "models",
      match spec.sp_models with
      | None -> J.Null
      | Some ms -> J.List (List.map (fun m -> J.String m) ms) );
    ("njobs", J.Int (njobs spec));
    ("shard", J.List [ J.Int si; J.Int sn ]);
  ]

let origin_name = function
  | Stcg.Testcase.Solved -> "solved"
  | Stcg.Testcase.Random_exec -> "random"

let origin_of_name key = function
  | "solved" -> Stcg.Testcase.Solved
  | "random" -> Stcg.Testcase.Random_exec
  | s -> malformed "field %S: unknown origin %S" key s

let t3_cell_json (i, (c : Experiment.t3_cell)) =
  J.Obj
    [
      ("i", J.Int i); ("d", J.Float c.Experiment.t3_decision);
      ("c", J.Float c.Experiment.t3_condition);
      ("m", J.Float c.Experiment.t3_mcdc); ("t", J.Int c.Experiment.t3_tests);
    ]

let f4_curve_json (i, (c : Experiment.f4_curve)) =
  let pair (t, v) = J.List [ J.Float t; v ] in
  J.Obj
    [
      ("i", J.Int i); ("tool", J.String c.Experiment.f4_tool);
      ( "timeline",
        J.List
          (List.map (fun (t, p) -> pair (t, J.Float p)) c.Experiment.f4_timeline)
      );
      ( "markers",
        J.List
          (List.map
             (fun (t, o) -> pair (t, J.String (origin_name o)))
             c.Experiment.f4_markers) );
    ]

let ab_cell_json (i, (c : Experiment.ab_cell)) =
  J.Obj
    [
      ("i", J.Int i); ("d", J.Float c.Experiment.ab_decision);
      ("tt", J.Float c.Experiment.ab_time);
    ]

let run_partial ?pool ?jobs ~shard spec =
  let si, sn = shard in
  if sn < 1 || si < 0 || si >= sn then
    invalid_arg "Shard.run_partial: shard must satisfy 0 <= i < n";
  let stripe = if sn = 1 then None else Some shard in
  let budget = spec.sp_budget in
  let models = spec.sp_models in
  let cells =
    match spec.sp_kind with
    | Table3 ->
      List.map t3_cell_json
        (Experiment.table3_cells ~budget ~seeds:spec.sp_seeds ?models ?pool
           ?jobs ?stripe ())
    | Fig4 ->
      List.map f4_curve_json
        (Experiment.fig4_curves ~budget ~seed:spec.sp_seed ?models ?pool ?jobs
           ?stripe ())
    | Ablations ->
      List.map ab_cell_json
        (Experiment.ablations_cells ~budget ~seeds:spec.sp_seeds ?models ?pool
           ?jobs ?stripe ())
  in
  J.to_string (J.Obj (header_of_spec spec ~shard @ [ ("cells", J.List cells) ]))
  ^ "\n"

(* --- merging ------------------------------------------------------------ *)

let field conv key json = conv key (J.member key json)

let spec_of_header json =
  let kind =
    let k = field J.string "kind" json in
    match kind_of_name k with
    | Some k -> k
    | None -> malformed "unknown kind %S" k
  in
  (* an empty seed list averages over no runs: every cell would be NaN *)
  let seeds = List.map (J.int "seeds") (field J.list "seeds" json) in
  if seeds = [] then malformed "empty seed list";
  (* likewise a campaign over no models, or over a model this binary
     does not know, would render tables with no rows for it *)
  let models =
    match J.member "models" json with
    | J.Null -> None
    | v ->
      let models = List.map (J.string "models") (J.list "models" v) in
      if models = [] then malformed "empty model list";
      List.iter
        (fun m ->
          if Registry.find m = None then
            malformed "unknown model %S; known models: %s" m
              (String.concat ", " Registry.names))
        models;
      Some models
  in
  {
    sp_kind = kind;
    sp_budget = field J.float "budget" json;
    sp_seeds = seeds;
    sp_seed = field J.int "seed" json;
    sp_models = models;
  }

let t3_cell_of_json json =
  ( field J.int "i" json,
    {
      Experiment.t3_decision = field J.float "d" json;
      t3_condition = field J.float "c" json;
      t3_mcdc = field J.float "m" json;
      t3_tests = field J.int "t" json;
    } )

let f4_curve_of_json json =
  let pairs key second =
    List.map
      (function
        | J.List [ t; v ] -> (J.float key t, second key v)
        | _ -> malformed "field %S: expected [time, value] pairs" key)
      (field J.list key json)
  in
  ( field J.int "i" json,
    {
      Experiment.f4_tool = field J.string "tool" json;
      f4_timeline = pairs "timeline" J.float;
      f4_markers =
        pairs "markers" (fun key v -> origin_of_name key (J.string key v));
    } )

let ab_cell_of_json json =
  ( field J.int "i" json,
    {
      Experiment.ab_decision = field J.float "d" json;
      ab_time = field J.float "tt" json;
    } )

type merged =
  | M_table3 of Experiment.averaged list * string
  | M_fig4 of string * (string * string) list
  | M_ablations of string

let render = function
  | M_table3 (_, text) -> text
  | M_fig4 (panels, _) -> panels
  | M_ablations text -> text

(* Validate that the indexed cells cover [0, total) exactly once and
   strip the indices (cells arrive sorted by index). *)
let check_coverage ~total cells =
  let seen = Array.make total false in
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= total then
        malformed "cell index %d outside the %d-job matrix" i total;
      if seen.(i) then malformed "cell index %d covered by two partials" i;
      seen.(i) <- true)
    cells;
  Array.iteri
    (fun i covered ->
      if not covered then malformed "cell index %d missing from the partials" i)
    seen;
  List.map snd cells

let parse text =
  match J.of_string text with Ok json -> json | Error m -> malformed "%s" m

let merge_parsed parsed =
  let headers = List.map spec_of_header parsed in
  let spec = List.hd headers in
  List.iteri
    (fun k h ->
      if h <> spec then
        malformed "partial %d is from a different campaign" (k + 1))
    headers;
  let total = njobs spec in
  List.iter
    (fun json ->
      let declared = field J.int "njobs" json in
      if declared <> total then
        malformed
          "partial declares a %d-job matrix but this binary computes %d \
           (registry mismatch?)"
          declared total)
    parsed;
  let all_cells key of_json =
    List.concat_map
      (fun json -> List.map of_json (field J.list key json))
      parsed
    |> List.sort (fun (i, _) (j, _) -> compare (i : int) j)
    |> check_coverage ~total
  in
  let budget = spec.sp_budget in
  let models = spec.sp_models in
  match spec.sp_kind with
  | Table3 ->
    let rows, text =
      Experiment.table3_of_cells ~budget ~seeds:spec.sp_seeds ?models
        (all_cells "cells" t3_cell_of_json)
    in
    M_table3 (rows, text)
  | Fig4 ->
    let panels, csvs =
      Experiment.fig4_of_curves ~budget ?models
        (all_cells "cells" f4_curve_of_json)
    in
    M_fig4 (panels, csvs)
  | Ablations ->
    M_ablations
      (Experiment.ablations_of_cells ~budget ~seeds:spec.sp_seeds ?models
         (all_cells "cells" ab_cell_of_json))

let merge_strings parts =
  if parts = [] then malformed "no partials to merge";
  try merge_parsed (List.map parse parts)
  with J.Type_error m -> raise (Malformed m)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let merge_files paths = merge_strings (List.map read_file paths)
