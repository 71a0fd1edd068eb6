(* Tests for decision / condition / MCDC coverage tracking. *)

module V = Slim.Value
module Ir = Slim.Ir
module Interp = Slim.Interp
module Branch = Slim.Branch
module Tracker = Coverage.Tracker
module Criteria = Coverage.Criteria

let check = Alcotest.check

(* y := 1 when (a && b) else 0; plus a switch on s. *)
let prog =
  let open Ir in
  renumber_decisions
    {
      name = "cov";
      inputs =
        [ input "a" V.Tbool; input "b" V.Tbool; input "s" (V.tint_range 0 3) ];
      outputs = [ output "y" V.tint ];
      states = [];
      locals = [];
      body =
        [
          if_ (iv "a" &&: iv "b")
            [ assign_out "y" (ci 1) ]
            [ assign_out "y" (ci 0) ];
          switch (iv "s") [ (0, []); (1, []) ] [];
        ];
    }

let run tracker a b s =
  let ins =
    Interp.inputs_of_list [ ("a", V.Bool a); ("b", V.Bool b); ("s", V.Int s) ]
  in
  ignore
    (Interp.run_step ~on_event:(Tracker.observe tracker) prog
       (Interp.initial_state prog) ins)

let test_totals () =
  let t = Tracker.create prog in
  let c = Tracker.criteria t in
  (* if: 2 branches; switch: 2 cases + default = 3 -> 5 decision points *)
  check Alcotest.int "decision total" 5 c.Criteria.decision_total;
  (* 2 atoms, both polarities *)
  check Alcotest.int "condition total" 4 c.Criteria.condition_total;
  check Alcotest.int "mcdc total" 2 c.Criteria.mcdc_total

let test_decision_accumulates () =
  let t = Tracker.create prog in
  run t true true 0;
  let d = Tracker.decision t in
  check Alcotest.int "two branches after one step" 2 d.Tracker.covered;
  run t false true 1;
  run t true false 2;
  let d = Tracker.decision t in
  check Alcotest.int "all five covered" 5 d.Tracker.covered;
  check Alcotest.bool "fully covered" true (Tracker.fully_covered t)

let test_condition_coverage () =
  let t = Tracker.create prog in
  run t true true 0;
  let c = Tracker.condition t in
  check Alcotest.int "a=T b=T gives two outcomes" 2 c.Tracker.covered;
  run t false false 0;
  let c = Tracker.condition t in
  check Alcotest.int "all four condition outcomes" 4 c.Tracker.covered

let test_mcdc_and_gate () =
  let t = Tracker.create prog in
  (* TT vs FT isolates a; TT vs TF isolates b. *)
  run t true true 0;
  check Alcotest.int "no pair yet" 0 (Tracker.mcdc t).Tracker.covered;
  run t false true 0;
  check Alcotest.int "a isolated" 1 (Tracker.mcdc t).Tracker.covered;
  run t true false 0;
  check Alcotest.int "both isolated" 2 (Tracker.mcdc t).Tracker.covered

let test_mcdc_ff_tt_not_independent () =
  (* FF vs TT differ in both conditions and neither is masked: no MCDC. *)
  let t = Tracker.create prog in
  run t false false 0;
  run t true true 0;
  check Alcotest.int "FF/TT pair proves nothing for &&" 0
    (Tracker.mcdc t).Tracker.covered

let test_mcdc_masking_or_and () =
  (* guard: a || (b && c).  Pair (F,T,T) vs (T,T,F): outcomes T/T - no.
     Use (F,T,T)->T vs (F,T,F)->F isolates c;
     (F,F,x): b masked?  Check masking pair for a: (F,F,F)->F vs (T,F,F)->T
     is unique-cause anyway.  Masking case: (T,T,T)->T vs (F,F,T)->F:
     differ in a and b; flipping b alone in (T,T,T) gives (T,F,T)->T (masked),
     in (F,F,T) gives (F,T,T)->T -> NOT masked, so pair must not count. *)
  let open Ir in
  let p =
    renumber_decisions
      {
        name = "mask";
        inputs = [ input "a" V.Tbool; input "b" V.Tbool; input "c" V.Tbool ];
        outputs = [ output "y" V.tint ];
        states = [];
        locals = [];
        body =
          [
            if_ (iv "a" ||: (iv "b" &&: iv "c"))
              [ assign_out "y" (ci 1) ]
              [ assign_out "y" (ci 0) ];
          ];
      }
  in
  let t = Tracker.create p in
  let run a b c =
    let ins =
      Interp.inputs_of_list
        [ ("a", V.Bool a); ("b", V.Bool b); ("c", V.Bool c) ]
    in
    ignore
      (Interp.run_step ~on_event:(Tracker.observe t) p
         (Interp.initial_state p) ins)
  in
  run true true true;
  run false false true;
  (* Only the non-masked pair observed: nothing proven yet. *)
  check Alcotest.int "unmasked pair rejected" 0 (Tracker.mcdc t).Tracker.covered;
  run false true true;
  (* (T,T,T) vs (F,T,T): unique cause for a. *)
  check Alcotest.int "a proven" 1 (Tracker.mcdc t).Tracker.covered;
  run false true false;
  (* (F,T,T)=T vs (F,T,F)=F isolates c. *)
  check Alcotest.int "c proven" 2 (Tracker.mcdc t).Tracker.covered

let test_guard_fn () =
  let open Ir in
  let guard = (iv "a" &&: not_ (iv "b")) ||: iv "c" in
  let f = Criteria.guard_fn guard in
  check Alcotest.bool "TFT" true (f [| true; false; true |]);
  check Alcotest.bool "TTF" false (f [| true; true; false |]);
  check Alcotest.bool "FFF" false (f [| false; false; false |]);
  check Alcotest.bool "FFT" true (f [| false; false; true |])

let test_uncovered_branches () =
  let t = Tracker.create prog in
  run t true true 0;
  let uncovered = Tracker.uncovered_branches t in
  check Alcotest.int "three uncovered" 3 (List.length uncovered);
  check Alcotest.bool "else uncovered" true
    (List.exists
       (fun (b : Branch.t) -> b.outcome = Branch.Else)
       uncovered)

let test_copy_independent () =
  let t = Tracker.create prog in
  run t true true 0;
  let t2 = Tracker.copy t in
  run t2 false false 1;
  check Alcotest.int "copy advanced" 4 (Tracker.decision t2).Tracker.covered;
  check Alcotest.int "original unchanged" 2 (Tracker.decision t).Tracker.covered

let prop_pct_bounds =
  QCheck.Test.make ~name:"pct in [0,100]" ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (c, t) ->
      let c = min c t in
      let p = Tracker.pct { Tracker.covered = c; total = t } in
      p >= 0.0 && p <= 100.0)

(* --- differential property against the reference tracker -------------- *)

(* The tracker and [Ref_tracker] (the former name-keyed one) are fed one
   event stream: [Exec.run_step] events from random inputs, on the
   registry models and on fuzz-generated models, with random
   justifications and copies mixed in.  After every operation every
   query must agree.  [observed_vectors] is compared as a list, order
   included, because the engine's dynamic MC/DC sweep depends on the
   order. *)

module Ref = Ref_tracker
module Exec = Slim.Exec

let same_ratio (a : Tracker.ratio) (b : Ref.ratio) =
  a.Tracker.covered = b.Ref.covered && a.Tracker.total = b.Ref.total

(* The first query on which the trackers disagree, if any. *)
let disagreement (r : Ref.t) (t : Tracker.t) =
  let crit = Tracker.criteria t in
  let decisions = crit.Criteria.decisions in
  let vectors_agree (d : Criteria.decision_info) =
    let rv = Ref.observed_vectors r d.d_id in
    rv = Tracker.observed_vectors t d.d_id
    && List.for_all
         (fun (v, _) ->
           let flipped = Array.map not v in
           Tracker.is_vector_observed t d.d_id v
           && Tracker.is_vector_observed t d.d_id flipped
              = List.exists (fun (w, _) -> w = flipped) rv)
         rv
  in
  let conditions_agree (d : Criteria.decision_info) =
    List.for_all
      (fun a ->
        List.for_all
          (fun v ->
            Ref.is_condition_covered r d.d_id a v
            = Tracker.is_condition_covered t d.d_id a v)
          [ true; false ])
      (List.init (d.d_atom_count + 1) Fun.id)
  in
  let keys l = List.map (fun (b : Branch.t) -> b.key) l in
  List.find_map
    (fun (name, ok) -> if ok then None else Some name)
    [
      ( "covered_branches",
        Branch.Key_set.equal (Ref.covered_branches r) (Tracker.covered_branches t) );
      ("progress", Ref.progress r = Tracker.progress t);
      ("decision", same_ratio (Tracker.decision t) (Ref.decision r));
      ("condition", same_ratio (Tracker.condition t) (Ref.condition r));
      ("mcdc", same_ratio (Tracker.mcdc t) (Ref.mcdc r));
      ("fully_covered", Ref.fully_covered r = Tracker.fully_covered t);
      ("justified_counts", Ref.justified_counts r = Tracker.justified_counts t);
      ( "uncovered_branches",
        keys (Ref.uncovered_branches r) = keys (Tracker.uncovered_branches t) );
      ("uncovered_mcdc", Ref.uncovered_mcdc r = Tracker.uncovered_mcdc t);
      ("is_condition_covered", List.for_all conditions_agree decisions);
      ( "is_branch_covered",
        List.for_all
          (fun (b : Branch.t) ->
            Ref.is_branch_covered r b.key = Tracker.is_branch_covered t b.key)
          crit.Criteria.branches );
      ("observed_vectors", List.for_all vectors_agree decisions);
    ]

(* A random justification over the program's objectives, with repeats. *)
let random_justification rng (crit : Criteria.t) =
  let pick l =
    let l = List.filter (fun _ -> Random.State.int rng 4 = 0) l in
    l @ List.filter (fun _ -> Random.State.bool rng) l
  in
  let atoms =
    List.concat_map
      (fun (d : Criteria.decision_info) ->
        List.init d.d_atom_count (fun a -> (d.d_id, a)))
      crit.Criteria.decisions
  in
  ( pick (List.map (fun (b : Branch.t) -> b.key) crit.Criteria.branches),
    pick (List.concat_map (fun (d, a) -> [ (d, a, true); (d, a, false) ]) atoms),
    pick atoms )

let fuzz_program seed =
  let rng = Util.Splitmix.create seed in
  match Fuzzer.Gen.program_of (Fuzzer.Gen.gen_model rng ~size:(8 + (seed mod 16))) with
  | prog -> Some prog
  | exception _ -> None

(* One eight-atom guard: enough distinct vectors for a decision to
   outgrow the 16 and 32 buckets the reference's table starts with. *)
let wide_prog =
  let open Ir in
  let names = List.init 8 (Fmt.str "x%d") in
  let guard =
    match List.map iv names with
    | a :: b :: c :: d :: rest ->
      List.fold_left (fun acc x -> Or (acc, x)) (And (Or (a, b), And (c, Unop (Not, d)))) rest
    | _ -> assert false
  in
  renumber_decisions
    {
      name = "wide";
      inputs = List.map (fun n -> input n V.Tbool) names;
      outputs = [ output "y" V.Tbool ];
      states = [];
      locals = [];
      body = [ if_ guard [ assign_out "y" (cb true) ] [ assign_out "y" (cb false) ] ];
    }

(* One tracker pair under test: both see the same events; [mark] and
   [before] were taken when the pair was made. *)
type pair = {
  r : Ref.t;
  t : Tracker.t;
  st : Exec.state;
  mark : Tracker.mark;
  before : Branch.Key_set.t;
}

let fresh_agrees p =
  Branch.Key_set.equal (Tracker.fresh_since p.t p.mark)
    (Branch.Key_set.diff (Ref.covered_branches p.r) p.before)

(* Run one case; [Some msg] on the first disagreement.  A copy becomes
   a second pair that then draws its own inputs, so a copy that shares
   state with its original shows up on one side or the other. *)
let differential_case (model, seed) =
  let n_registry = List.length Models.Registry.entries in
  (* the wide model's queries are quadratic in its many vectors, so
     they are checked every 20 steps *)
  let prog, steps, every =
    if model < n_registry then
      (Some ((List.nth Models.Registry.entries model).Models.Registry.program ()), 30, 1)
    else if model = n_registry then (Some wide_prog, 160, 20)
    else (fuzz_program seed, 30, 1)
  in
  match prog with
  | None -> None
  | Some prog ->
    let ex = Exec.handle prog in
    let rng = Random.State.make [| seed |] in
    let t = Tracker.create prog in
    let r = Ref.create prog in
    let first =
      { r; t; st = Exec.initial_state ex; mark = Tracker.mark t;
        before = Ref.covered_branches r }
    in
    let step p =
      let observe e =
        Ref.observe p.r e;
        Tracker.observe p.t e
      in
      let before = Ref.covered_branches p.r and mark = Tracker.mark p.t in
      let st =
        match Exec.run_step ~on_event:observe ex p.st (Exec.random_inputs rng ex) with
        | _, st -> st
        | exception (Exec.Eval_error _ | Slim.Value.Type_error _) -> p.st
      in
      if fresh_agrees { p with mark; before } then Ok { p with st }
      else Error "fresh_since"
    in
    let check p =
      match disagreement p.r p.t with
      | Some q -> Some q
      | None -> if fresh_agrees p then None else Some "fresh since the pair's mark"
    in
    let rec go k pairs =
      match
        if k mod every <> 0 && k < steps then None else List.find_map check pairs
      with
      | Some q -> Some (Fmt.str "step %d: %s" k q)
      | None when k = steps -> None
      | None -> (
        let p = List.nth pairs (Random.State.int rng (List.length pairs)) in
        match Random.State.int rng 10 with
        | 0 ->
          let branches, conditions, mcdc =
            random_justification rng (Tracker.criteria p.t)
          in
          Ref.set_justified p.r ~branches ~conditions ~mcdc;
          Tracker.set_justified p.t ~branches ~conditions ~mcdc;
          go (k + 1) pairs
        | 1 when List.length pairs < 4 ->
          go (k + 1) ({ p with r = Ref.copy p.r; t = Tracker.copy p.t } :: pairs)
        | _ -> (
          let stepped = List.map step pairs in
          match List.find_map (function Error e -> Some e | Ok _ -> None) stepped with
          | Some e -> Some (Fmt.str "step %d: %s" k e)
          | None -> go (k + 1) (List.map Result.get_ok stepped)))
    in
    go 0 [ first ]

let prop_reference_tracker =
  QCheck.Test.make ~name:"tracker agrees with the reference tracker" ~count:400
    QCheck.(pair (int_bound (List.length Models.Registry.entries + 8)) small_nat)
    (fun case ->
      match differential_case case with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "%s" msg)

let () =
  Alcotest.run "coverage"
    [
      ( "tracking",
        [
          Alcotest.test_case "totals" `Quick test_totals;
          Alcotest.test_case "decision" `Quick test_decision_accumulates;
          Alcotest.test_case "condition" `Quick test_condition_coverage;
          Alcotest.test_case "uncovered" `Quick test_uncovered_branches;
          Alcotest.test_case "copy" `Quick test_copy_independent;
        ] );
      ( "mcdc",
        [
          Alcotest.test_case "and gate" `Quick test_mcdc_and_gate;
          Alcotest.test_case "tt-ff rejected" `Quick test_mcdc_ff_tt_not_independent;
          Alcotest.test_case "masking" `Quick test_mcdc_masking_or_and;
          Alcotest.test_case "guard fn" `Quick test_guard_fn;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest [ prop_pct_bounds ]
        @ [
            QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 16 |])
              prop_reference_tracker;
          ] );
    ]
