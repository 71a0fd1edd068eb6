(* Chrome trace_event exporter: spans as "X" (complete) events, one
   thread lane per domain, plus a global instant event carrying the
   final counter totals.  The output loads directly in chrome://tracing
   and https://ui.perfetto.dev.

   Timestamps are rebased to the earliest recorded span so the trace
   starts near t=0 regardless of the process epoch; ts/dur are in
   microseconds as the format requires. *)

module J = Util.Json

let meta ~tid name value =
  J.Obj
    [
      ("name", J.String name); ("ph", J.String "M"); ("pid", J.Int 0);
      ("tid", J.Int tid); ("args", J.Obj [ ("name", J.String value) ]);
    ]

let to_string () =
  let records = Core.span_records () in
  let t0 =
    List.fold_left
      (fun acc (r : Core.span_record) ->
        if Int64.compare r.Core.sr_start_ns acc < 0 then r.Core.sr_start_ns
        else acc)
      (match records with [] -> 0L | r :: _ -> r.Core.sr_start_ns)
      records
  in
  let us ns = J.Float (Int64.to_float ns /. 1e3) in
  let domains =
    List.sort_uniq Int.compare
      (List.map (fun (r : Core.span_record) -> r.Core.sr_domain) records)
  in
  let span (r : Core.span_record) =
    J.Obj
      ([
         ("name", J.String r.Core.sr_name); ("cat", J.String "stcg");
         ("ph", J.String "X"); ("pid", J.Int 0); ("tid", J.Int r.Core.sr_domain);
         ("ts", us (Int64.sub r.Core.sr_start_ns t0));
         ("dur", us r.Core.sr_dur_ns);
       ]
      @
      match r.Core.sr_note with
      | Some note -> [ ("args", J.Obj [ ("note", J.String note) ]) ]
      | None -> [])
  in
  let snap = Core.snapshot ~nondet:true () in
  let counters =
    J.Obj
      [
        ("name", J.String "counters"); ("ph", J.String "i"); ("s", J.String "g");
        ("pid", J.Int 0); ("tid", J.Int 0); ("ts", J.Int 0);
        ( "args",
          J.Obj (List.map (fun (n, v) -> (n, J.Int v)) snap.Core.sn_counters) );
      ]
  in
  let threads =
    List.map
      (fun d -> meta ~tid:d "thread_name" (Printf.sprintf "domain %d" d))
      domains
  in
  let events =
    (meta ~tid:0 "process_name" "stcg" :: threads)
    @ List.map span records @ [ counters ]
  in
  J.to_string
    (J.Obj [ ("traceEvents", J.List events); ("displayTimeUnit", J.String "ms") ])
  ^ "\n"

let write ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ()))
