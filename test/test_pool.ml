(* Tests for the domain-parallel run pool: result ordering, the
   sequential jobs=1 contract, exception propagation, nested-use
   rejection, pool reuse — and the end-to-end determinism guarantee the
   harness builds on (table3 byte-identical for any worker count). *)

module Pool = Harness.Pool

let check = Alcotest.check

(* Uneven busy-work so jobs genuinely finish out of submission order
   and the stealing path is exercised. *)
let busy i =
  let n = 1_000 * (1 + ((i * 7) mod 13)) in
  let acc = ref 0 in
  for k = 1 to n do
    acc := !acc + (k mod 7)
  done;
  !acc |> ignore

let test_map_ordering () =
  let items = List.init 100 Fun.id in
  let f i =
    busy i;
    i * i
  in
  let expected = List.map f items in
  List.iter
    (fun jobs ->
      check
        Alcotest.(list int)
        (Fmt.str "map order, jobs=%d" jobs)
        expected
        (Pool.parallel_map ~jobs ~oversubscribe:true f items))
    [ 1; 2; 4; 7 ]

let test_empty_and_singleton () =
  check Alcotest.(list int) "empty" [] (Pool.parallel_map ~jobs:4 Fun.id []);
  check Alcotest.(list int) "singleton" [ 42 ]
    (Pool.parallel_map ~jobs:4 (fun x -> x) [ 42 ])

let test_jobs1_is_sequential () =
  (* jobs=1 must be the plain List.map path: same domain, same order of
     side effects *)
  let trace = ref [] in
  let out =
    Pool.parallel_map ~jobs:1
      (fun i ->
        trace := i :: !trace;
        i + 1)
      [ 1; 2; 3 ]
  in
  check Alcotest.(list int) "results" [ 2; 3; 4 ] out;
  check Alcotest.(list int) "effect order" [ 3; 2; 1 ] !trace

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Fmt.str "failure surfaces, jobs=%d" jobs)
        (Failure "boom")
        (fun () ->
          ignore
            (Pool.parallel_map ~jobs ~oversubscribe:true
               (fun i -> if i = 5 then failwith "boom" else i)
               (List.init 10 Fun.id))))
    [ 1; 4 ];
  (* the pool survives a failed batch: same pool usable afterwards *)
  Pool.with_pool ~jobs:2 ~oversubscribe:true (fun p ->
      (try ignore (Pool.map p (fun () -> failwith "once") [ () ])
       with Failure _ -> ());
      check
        Alcotest.(list int)
        "pool reusable after failure" [ 1; 2 ]
        (Pool.map p Fun.id [ 1; 2 ]))

let test_nested_use_rejected () =
  (* rejected on the (possibly clamped) default path... *)
  Alcotest.check_raises "nested parallel_map is an error" Pool.Nested_pool
    (fun () ->
      ignore
        (Pool.parallel_map ~jobs:2
           (fun _ -> Pool.parallel_map ~jobs:2 Fun.id [ 1; 2 ])
           [ 1; 2; 3; 4 ]));
  (* ...and from a genuine worker domain *)
  Alcotest.check_raises "nested under real domains too" Pool.Nested_pool
    (fun () ->
      ignore
        (Pool.parallel_map ~jobs:2 ~oversubscribe:true
           (fun _ -> Pool.parallel_map ~jobs:2 Fun.id [ 1; 2 ])
           [ 1; 2; 3; 4 ]))

let test_pool_reuse () =
  Pool.with_pool ~jobs:3 ~oversubscribe:true (fun p ->
      check Alcotest.int "size" 3 (Pool.size p);
      let a = Pool.map p (fun i -> i + 1) (List.init 20 Fun.id) in
      let b = Pool.map p (fun i -> i * 2) (List.init 20 Fun.id) in
      check Alcotest.(list int) "first batch" (List.init 20 (fun i -> i + 1)) a;
      check Alcotest.(list int) "second batch" (List.init 20 (fun i -> i * 2)) b)

let test_map_chunked_matches_map () =
  let items = List.init 53 Fun.id in
  let f i =
    busy i;
    (i * 3) - 7
  in
  let expected = List.map f items in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs ~oversubscribe:true (fun p ->
          List.iter
            (fun chunk ->
              check
                Alcotest.(list int)
                (Fmt.str "chunked = map, jobs=%d chunk=%d" jobs chunk)
                expected
                (Pool.map_chunked p ~chunk f items))
            [ 0; 1; 3; 7; 8; 53; 100 ]))
    [ 1; 2; 4; 7 ]

let test_map_chunked_empty () =
  Pool.with_pool ~jobs:3 (fun p ->
      check Alcotest.(list int) "empty" [] (Pool.map_chunked p ~chunk:4 Fun.id []))

let test_map_chunked_effect_count () =
  (* every item is mapped exactly once, whatever the chunking *)
  Pool.with_pool ~jobs:1 (fun p ->
      List.iter
        (fun chunk ->
          let hits = Array.make 10 0 in
          ignore
            (Pool.map_chunked p ~chunk
               (fun i ->
                 hits.(i) <- hits.(i) + 1;
                 i)
               (List.init 10 Fun.id));
          check
            Alcotest.(list int)
            (Fmt.str "each item once, chunk=%d" chunk)
            (List.init 10 (fun _ -> 1))
            (Array.to_list hits))
        [ 1; 3; 10; 99 ])

let test_map_chunked_exception () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs ~oversubscribe:true (fun p ->
          Alcotest.check_raises
            (Fmt.str "failure surfaces, jobs=%d" jobs)
            (Failure "chunk-boom")
            (fun () ->
              ignore
                (Pool.map_chunked p ~chunk:4
                   (fun i -> if i = 9 then failwith "chunk-boom" else i)
                   (List.init 20 Fun.id)));
          (* the pool survives and stays usable *)
          check
            Alcotest.(list int)
            "pool reusable after chunked failure" [ 5; 6 ]
            (Pool.map_chunked p ~chunk:2 Fun.id [ 5; 6 ])))
    [ 1; 3 ]

let test_default_jobs_positive () =
  check Alcotest.bool "default_jobs >= 1" true (Pool.default_jobs () >= 1)

let test_effective_jobs_clamp () =
  check Alcotest.int "oversubscribe keeps the request" 8
    (Pool.effective_jobs ~oversubscribe:true 8);
  check Alcotest.bool "clamped to the core count" true
    (Pool.effective_jobs 64 <= max 1 (Domain.recommended_domain_count ()));
  check Alcotest.int "jobs=2 gets min 2 cores"
    (min 2 (max 1 (Domain.recommended_domain_count ())))
    (Pool.effective_jobs 2);
  check Alcotest.int "requests below 1 clamp to 1" 1 (Pool.effective_jobs 0);
  Pool.with_pool ~jobs:3 (fun p ->
      check Alcotest.int "size reports the request" 3 (Pool.size p);
      check Alcotest.int "workers reports the clamp" (Pool.effective_jobs 3)
        (Pool.workers p));
  Pool.with_pool ~jobs:3 ~oversubscribe:true (fun p ->
      check Alcotest.int "oversubscribed pool keeps 3 workers" 3
        (Pool.workers p))

(* jobs=8 with the clamp bypassed, so real cross-domain scheduling runs
   on any machine; adversarially uneven job durations (a few huge jobs
   scattered through a tail of tiny ones) plus the cost model, repeated
   on one pool — the merged results must be the sequential list every
   round. *)
let test_stress_oversubscribed_uneven () =
  let items = List.init 150 Fun.id in
  let weight i = if i mod 29 = 3 then 150_000 else 200 + (i * 13 mod 977) in
  let f i =
    let acc = ref 0 in
    for k = 1 to weight i do
      acc := !acc + (k land 15)
    done;
    (i, !acc)
  in
  let expected = List.map f items in
  Pool.with_pool ~jobs:8 ~oversubscribe:true (fun p ->
      for round = 1 to 3 do
        check
          Alcotest.(list (pair int int))
          (Fmt.str "stress round %d (cost-ordered)" round)
          expected
          (Pool.map p ~cost:weight f items)
      done;
      check
        Alcotest.(list (pair int int))
        "stress without cost model" expected (Pool.map p f items))

(* The harness-level guarantee the whole refactor exists for: the same
   job matrix merged in job-index order gives byte-identical artifacts
   whatever the worker count. *)
let test_table3_determinism () =
  let run jobs =
    (* oversubscribed pool so jobs=4 runs four real domains even on a
       smaller machine — the clamp must never be what makes this pass *)
    Pool.with_pool ~jobs ~oversubscribe:true (fun pool ->
        Harness.Experiment.table3 ~budget:30.0 ~seeds:[ 1; 2 ]
          ~models:[ "CPUTask"; "AFC" ] ~pool ())
  in
  let rows1, text1 = run 1 in
  let rows4, text4 = run 4 in
  check Alcotest.string "rendered table identical (jobs=4 vs jobs=1)" text1
    text4;
  check Alcotest.int "row count" (List.length rows1) (List.length rows4);
  List.iter2
    (fun (a : Harness.Experiment.averaged) (b : Harness.Experiment.averaged) ->
      check Alcotest.string "row model" a.Harness.Experiment.a_model
        b.Harness.Experiment.a_model;
      check Alcotest.bool
        (Fmt.str "row %s/%s equal" a.Harness.Experiment.a_model
           (Harness.Experiment.tool_name a.Harness.Experiment.a_tool))
        true (a = b))
    rows1 rows4

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map ordering" `Quick test_map_ordering;
          Alcotest.test_case "empty + singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "jobs=1 sequential" `Quick test_jobs1_is_sequential;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested use rejected" `Quick
            test_nested_use_rejected;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "map_chunked = map (any jobs/chunk)" `Quick
            test_map_chunked_matches_map;
          Alcotest.test_case "map_chunked empty" `Quick test_map_chunked_empty;
          Alcotest.test_case "map_chunked maps each item once" `Quick
            test_map_chunked_effect_count;
          Alcotest.test_case "map_chunked exception propagation" `Quick
            test_map_chunked_exception;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
          Alcotest.test_case "effective jobs clamp" `Quick
            test_effective_jobs_clamp;
          Alcotest.test_case "oversubscribed uneven stress" `Quick
            test_stress_oversubscribed_uneven;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "table3 jobs=4 = jobs=1" `Quick
            test_table3_determinism;
        ] );
    ]
