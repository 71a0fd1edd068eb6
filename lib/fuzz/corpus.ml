type entry = {
  e_seed : int;
  e_index : int;
  e_oracle : string;
  e_max_steps : int;
  e_message : string;
}

let schema_version = 1

module J = Util.Json

let to_line e =
  J.to_string
    (J.Obj
       [
         ("schema_version", J.Int schema_version); ("seed", J.Int e.e_seed);
         ("index", J.Int e.e_index); ("oracle", J.String e.e_oracle);
         ("max_steps", J.Int e.e_max_steps); ("message", J.String e.e_message);
       ])

let of_line line =
  match J.of_string line with
  | Error m -> Error m
  | Ok json -> (
    let field conv key = conv key (J.member key json) in
    match
      let version = field J.int "schema_version" in
      if version <> schema_version then
        Error (Printf.sprintf "unsupported schema_version %d" version)
      else
        Ok
          {
            e_seed = field J.int "seed";
            e_index = field J.int "index";
            e_oracle = field J.string "oracle";
            e_max_steps = field J.int "max_steps";
            e_message = field J.string "message";
          }
    with
    | r -> r
    | exception J.Type_error m -> Error m)

let load path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let rec go lineno acc =
      match input_line ic with
      | exception End_of_file -> Ok (List.rev acc)
      | line ->
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) acc
        else (
          match of_line trimmed with
          | Ok e -> go (lineno + 1) (e :: acc)
          | Error m -> Error (Printf.sprintf "%s:%d: %s" path lineno m))
    in
    go 1 []

let append ~path entries =
  if entries <> [] then begin
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
    in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
    List.iter
      (fun e ->
        output_string oc (to_line e);
        output_char oc '\n')
      entries
  end

let of_failures ~seed ~max_steps failures =
  List.map
    (fun (f : Campaign.failure) ->
      {
        e_seed = seed;
        e_index = f.Campaign.f_case;
        e_oracle = f.Campaign.f_oracle;
        e_max_steps = max_steps;
        e_message = f.Campaign.f_message;
      })
    failures

let replay e =
  if e.e_oracle <> "build" && not (List.mem e.e_oracle Oracle.all) then
    Oracle.Fail ("unknown oracle " ^ e.e_oracle)
  else begin
    let _case, failure =
      Campaign.run_case ~oracles:[ e.e_oracle ] ~seed:e.e_seed
        ~max_steps:e.e_max_steps e.e_index
    in
    match failure with
    | None -> Oracle.Pass
    | Some f ->
      Oracle.Fail
        (Printf.sprintf "case %d still fails %s: %s" e.e_index
           f.Campaign.f_oracle f.Campaign.f_message)
  end
