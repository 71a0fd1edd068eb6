type config = {
  steps : int;
  segments : int;
  shape : Signal.shape;
  samples : int;
  descent : int;
  seed : int;
}

let default_config ~seed =
  { steps = 48; segments = 6; shape = Signal.Piecewise_constant;
    samples = 32; descent = 64; seed }

type row = {
  f_model : string;
  f_req : string;
  f_fault : bool;
  f_rob : float;
  f_falsified : bool;
  f_at_trace : int option;
  f_traces : int;
}

(* A requirement's search seed depends only on the campaign seed and its
   table position — not on scheduling — so the campaign is replayable
   per row and byte-stable for any worker count. *)
let req_seed cfg index = Util.Splitmix.mix_seed cfg.seed index

let exec_of_model name =
  match Models.Registry.find name with
  | Some (e : Models.Registry.entry) -> Slim.Exec.handle (e.program ())
  | None -> failwith (Printf.sprintf "falsify: unknown registry model %S" name)

let run_req_at cfg index (r : Requirements.req) =
  let exec = exec_of_model r.r_model in
  let plan =
    Signal.plan exec ~shape:cfg.shape ~steps:cfg.steps ~segments:cfg.segments
  in
  let res =
    Search.run ~samples:cfg.samples ~descent:cfg.descent ~plan
      ~seed:(req_seed cfg index) r.r_formula
  in
  {
    f_model = r.r_model;
    f_req = r.r_name;
    f_fault = r.r_fault;
    f_rob = res.Search.best_rob;
    f_falsified = res.Search.falsified;
    f_at_trace = res.Search.at_trace;
    f_traces = res.Search.traces;
  }

let run_req cfg r = run_req_at cfg 0 r

let campaign ?jobs ?oversubscribe cfg reqs =
  let indexed = List.mapi (fun i r -> (i, r)) reqs in
  Harness.Pool.parallel_map ?jobs ?oversubscribe
    ~cost:(fun (_, (r : Requirements.req)) ->
      (* searches that stop at trace 1 (seeded faults) are far cheaper
         than full sample+descent budgets; schedule the long ones first *)
      if r.r_fault then 1 else cfg.samples + cfg.descent)
    (fun (i, r) -> run_req_at cfg i r)
    indexed

let render cfg rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "falsify: seed=%d steps=%d segments=%d shape=%s samples=%d descent=%d\n"
       cfg.seed cfg.steps cfg.segments (Signal.shape_name cfg.shape)
       cfg.samples cfg.descent);
  let w_model =
    List.fold_left (fun w r -> max w (String.length r.f_model)) 5 rows
  in
  let w_req =
    List.fold_left (fun w r -> max w (String.length r.f_req)) 11 rows
  in
  Buffer.add_string buf
    (Printf.sprintf "  %-*s  %-*s  %-6s  %-10s  %-9s  %s\n" w_model "model"
       w_req "requirement" "fault" "verdict" "at-trace" "min-robustness");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-*s  %-*s  %-6s  %-10s  %-9s  %.6g\n" w_model
           r.f_model w_req r.f_req
           (if r.f_fault then "yes" else "no")
           (if r.f_falsified then "FALSIFIED" else "ok")
           (match r.f_at_trace with Some n -> string_of_int n | None -> "-")
           r.f_rob))
    rows;
  let falsified = List.length (List.filter (fun r -> r.f_falsified) rows) in
  let traces = List.fold_left (fun a r -> a + r.f_traces) 0 rows in
  Buffer.add_string buf
    (Printf.sprintf "  %d/%d falsified, %d traces executed\n" falsified
       (List.length rows) traces);
  Buffer.contents buf
