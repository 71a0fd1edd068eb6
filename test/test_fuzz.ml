(* Tests for the fuzzing subsystem itself: generator determinism,
   shrinker contracts, and a known-seed corpus that must stay clean
   under every oracle.  These are the meta-tests that make the
   fuzzer trustworthy as a regression harness — a nondeterministic
   generator or a growing shrinker would silently invalidate every
   reproducer in TESTING.md. *)

module Gen = Fuzzer.Gen
module Shrink = Fuzzer.Shrink
module Oracle = Fuzzer.Oracle
module Campaign = Fuzzer.Campaign

let check = Alcotest.check

(* Mirror one campaign case draw: model spec + input sequence. *)
let draw_case seed =
  let rng = Util.Splitmix.create seed in
  let model_rng = Util.Splitmix.split rng in
  let input_rng = Util.Splitmix.split rng in
  let size = 8 + Util.Splitmix.int rng 16 in
  let steps = 1 + Util.Splitmix.int rng 11 in
  let m = Gen.gen_model model_rng ~size in
  let inputs =
    match Gen.program_of m with
    | prog -> Gen.gen_inputs input_rng prog ~steps
    | exception _ -> []
  in
  (m, inputs)

let safe_size m =
  match Gen.size_of m with exception _ -> max_int | n -> n

(* --- determinism ------------------------------------------------------ *)

let test_same_seed_same_model () =
  for seed = 0 to 24 do
    let m1, ins1 = draw_case seed in
    let m2, ins2 = draw_case seed in
    let r1 = Fmt.str "%a" Gen.pp_repro (m1, ins1) in
    let r2 = Fmt.str "%a" Gen.pp_repro (m2, ins2) in
    check Alcotest.string
      (Fmt.str "seed %d: printed reproducers byte-identical" seed)
      r1 r2;
    (match Gen.program_of m1, Gen.program_of m2 with
    | p1, p2 ->
      check Alcotest.string
        (Fmt.str "seed %d: compiled programs byte-identical" seed)
        (Fmt.str "%a" Slim.Ir.pp_program p1)
        (Fmt.str "%a" Slim.Ir.pp_program p2)
    | exception _ -> ())
  done

let test_case_seed_independent_of_count () =
  (* case i is addressed by (seed, i) alone — the derived per-case
     seeds must not depend on how many cases the campaign runs *)
  List.iter
    (fun seed ->
      List.iter
        (fun i ->
          check Alcotest.int
            (Fmt.str "case_seed(%d,%d) stable" seed i)
            (Campaign.case_seed ~seed i)
            (Campaign.case_seed ~seed i))
        [ 0; 1; 7; 123 ];
      let distinct =
        List.sort_uniq compare
          (List.init 64 (fun i -> Campaign.case_seed ~seed i))
      in
      check Alcotest.int
        (Fmt.str "seed %d: 64 case seeds all distinct" seed)
        64 (List.length distinct))
    [ 0; 1; 42 ]

(* --- shrinker --------------------------------------------------------- *)

let test_shrinker_never_grows () =
  (* accept every candidate: the shrinker walks to its fixpoint, and
     every candidate it proposes along the way must be <= the original
     in both model size and input-sequence length *)
  List.iter
    (fun seed ->
      let m, ins = draw_case seed in
      let orig_size = safe_size m in
      let orig_steps = List.length ins in
      let bad = ref [] in
      let still_fails m' ins' =
        let sz = safe_size m' in
        if sz > orig_size || List.length ins' > orig_steps then
          bad := (sz, List.length ins') :: !bad;
        true
      in
      let r = Shrink.minimize ~still_fails m ins in
      check Alcotest.(list (pair int int))
        (Fmt.str "seed %d: no candidate grew" seed)
        [] !bad;
      check Alcotest.bool
        (Fmt.str "seed %d: result no larger than original" seed)
        true
        (safe_size r.Shrink.r_model <= orig_size
        && List.length r.Shrink.r_inputs <= orig_steps))
    [ 2; 5; 11; 17 ]

let rec kind_has_counter = function
  | Gen.Counter _ -> true
  | Gen.Sub_if { then_; else_; _ } ->
    sub_has_counter then_ || sub_has_counter else_
  | Gen.Sub_enabled { sub; _ } -> sub_has_counter sub
  | _ -> false

and sub_has_counter (sb : Gen.subspec) =
  Array.exists (fun n -> kind_has_counter n.Gen.n_kind) sb.Gen.sb_nodes

let spec_has_counter (s : Gen.spec) =
  Array.exists (fun n -> kind_has_counter n.Gen.n_kind) s.Gen.sp_nodes

(* "the model computes with a Counter": every shrink candidate is
   compacted, so the Counter must be live, not just present *)
let has_live_counter = function
  | Gen.M_chart _ -> false
  | Gen.M_diagram s -> spec_has_counter (Gen.compact s)

let test_injected_failure_shrinks_small () =
  (* take generated diagrams computing with a Counter, declare that to
     be the failure, and demand every minimized case is a handful of
     blocks — the acceptance bar for real failures *)
  let found = ref [] in
  for seed = 0 to 60 do
    match draw_case seed with
    | m, ins when has_live_counter m && safe_size m < max_int ->
      found := (seed, m, ins) :: !found
    | _ -> ()
  done;
  if List.length !found < 3 then
    Alcotest.fail "fewer than 3 live-Counter diagrams in 61 seeds";
  List.iter
    (fun (seed, m, ins) ->
      let still_fails m' _ =
        has_live_counter m'
        && match Gen.program_of m' with exception _ -> false | _ -> true
      in
      let r = Shrink.minimize ~still_fails m ins in
      let final = safe_size r.Shrink.r_model in
      check Alcotest.bool
        (Fmt.str "seed %d: minimized case still has the Counter" seed)
        true
        (still_fails r.Shrink.r_model r.Shrink.r_inputs);
      if final > 8 then
        Alcotest.failf "seed %d: shrank only to %d blocks (want <= 8)" seed
          final)
    !found

(* --- known-seed corpus ------------------------------------------------ *)

let corpus_seeds = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ]

let test_corpus_clean seed () =
  let case, failure = Campaign.run_case ~seed ~max_steps:10 0 in
  (match failure with
  | None -> ()
  | Some f ->
    Alcotest.failf "seed %d: oracle %s failed: %s@.%s" seed f.Campaign.f_oracle
      f.Campaign.f_message f.Campaign.f_repro);
  check Alcotest.int
    (Fmt.str "seed %d: all oracles ran" seed)
    (List.length Oracle.all)
    (List.length case.Campaign.c_verdicts);
  List.iter
    (fun (o, v) ->
      match v with
      | Oracle.Pass -> ()
      | Oracle.Fail m -> Alcotest.failf "seed %d: %s: %s" seed o m)
    case.Campaign.c_verdicts

let test_campaign_summary_deterministic () =
  let run ~jobs ~chunk =
    Campaign.to_json
      (Campaign.run ~jobs ~chunk ~seed:7 ~count:8 ~max_steps:6 ())
  in
  let sequential = run ~jobs:1 ~chunk:1 in
  check Alcotest.string "jobs=2 chunk=3 summary byte-identical" sequential
    (run ~jobs:2 ~chunk:3);
  check Alcotest.string "jobs=3 chunk=1 summary byte-identical" sequential
    (run ~jobs:3 ~chunk:1)

let () =
  Alcotest.run "fuzz"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same printed model" `Quick
            test_same_seed_same_model;
          Alcotest.test_case "case seeds are index-addressed" `Quick
            test_case_seed_independent_of_count;
          Alcotest.test_case "campaign summary independent of jobs/chunk"
            `Quick test_campaign_summary_deterministic;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "candidates never grow" `Quick
            test_shrinker_never_grows;
          Alcotest.test_case "injected failure shrinks to <= 8 blocks" `Quick
            test_injected_failure_shrinks_small;
        ] );
      ( "known-seed corpus",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Fmt.str "seed %d clean under all oracles" seed)
              `Quick (test_corpus_clean seed))
          corpus_seeds );
    ]
