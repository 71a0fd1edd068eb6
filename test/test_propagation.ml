(* Property tests for the solver's abstract domains and the HC4
   propagator: the propagator must never discard concrete solutions
   (soundness of narrowing), and domain operations must satisfy the
   usual lattice laws. *)

module V = Slim.Value
module Ir = Slim.Ir
module T = Solver.Term
module Dom = Solver.Dom
module Hc4 = Solver.Hc4

let check = Alcotest.check

(* --- Dom lattice laws -------------------------------------------------- *)

let gen_int_dom =
  QCheck.Gen.(
    map2
      (fun lo span -> Dom.intn lo (lo + span))
      (int_range (-50) 50) (int_range 0 60))

let arb_int_dom = QCheck.make gen_int_dom

let prop_meet_commutative =
  QCheck.Test.make ~name:"meet commutative (int)" ~count:200
    (QCheck.pair arb_int_dom arb_int_dom)
    (fun (a, b) ->
      match Dom.meet a b, Dom.meet b a with
      | x, y -> Dom.equal x y
      | exception Dom.Empty -> (
        match Dom.meet b a with
        | _ -> false
        | exception Dom.Empty -> true))

let prop_hull_contains_both =
  QCheck.Test.make ~name:"hull is an upper bound" ~count:200
    (QCheck.pair arb_int_dom arb_int_dom)
    (fun (a, b) ->
      let h = Dom.hull a b in
      let contained d =
        match Dom.meet d h with
        | m -> Dom.equal m d
        | exception Dom.Empty -> false
      in
      contained a && contained b)

let prop_meet_lower_bound =
  QCheck.Test.make ~name:"meet is a lower bound" ~count:200
    (QCheck.pair arb_int_dom arb_int_dom)
    (fun (a, b) ->
      match Dom.meet a b with
      | m ->
        (* every member of the meet is a member of both *)
        List.for_all
          (fun v -> Dom.member a v && Dom.member b v)
          (Dom.sample m)
      | exception Dom.Empty -> true)

let prop_split_partitions =
  QCheck.Test.make ~name:"split halves cover the domain" ~count:200
    arb_int_dom
    (fun d ->
      match Dom.split d with
      | None -> Dom.is_singleton d
      | Some (l, r) ->
        let h = Dom.hull l r in
        Dom.equal h d)

(* --- HC4 soundness ------------------------------------------------------ *)

(* random small constraint over x, y in [-6,6] *)
let gen_constraint =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map T.cint (int_range (-6) 6); return (T.var "x"); return (T.var "y") ]
  in
  let num =
    oneof
      [
        map2 (fun a b -> T.binop Ir.Add a b) leaf leaf;
        map2 (fun a b -> T.binop Ir.Sub a b) leaf leaf;
        map2 (fun a b -> T.binop Ir.Min a b) leaf leaf;
        map2 (fun a b -> T.binop Ir.Max a b) leaf leaf;
        map (fun a -> T.unop Ir.Abs_op a) leaf;
        leaf;
      ]
  in
  let atom =
    map3
      (fun op a b -> T.cmp op a b)
      (oneofl [ Ir.Eq; Ir.Ne; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge ])
      num num
  in
  oneof
    [ atom; map2 T.and_ atom atom; map2 T.or_ atom atom; map T.not_ atom ]

let sat_at c x y =
  match
    T.eval
      (function
        | "x" -> V.Int x
        | "y" -> V.Int y
        | _ -> raise Not_found)
      c
  with
  | V.Bool b -> b
  | _ -> false

let prop_propagation_keeps_solutions =
  QCheck.Test.make ~name:"HC4 never discards a concrete solution"
    ~count:300
    (QCheck.make gen_constraint)
    (fun c ->
      let dom = V.tint_range (-6) 6 in
      let store =
        Hc4.create_store [ ("x", Dom.of_ty dom); ("y", Dom.of_ty dom) ]
      in
      match Hc4.propagate store c with
      | `Unsat ->
        (* claim: no solution exists at all *)
        let witness = ref false in
        for x = -6 to 6 do
          for y = -6 to 6 do
            if sat_at c x y then witness := true
          done
        done;
        not !witness
      | `Ok ->
        (* every concrete solution must survive in the narrowed store *)
        let ok = ref true in
        for x = -6 to 6 do
          for y = -6 to 6 do
            if sat_at c x y then begin
              if not (Dom.member (Hc4.get store "x") (V.Int x)) then
                ok := false;
              if not (Dom.member (Hc4.get store "y") (V.Int y)) then
                ok := false
            end
          done
        done;
        !ok)

let prop_forward_eval_contains_value =
  QCheck.Test.make ~name:"forward evaluation over-approximates" ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair gen_constraint (pair (int_range (-6) 6) (int_range (-6) 6))))
    (fun (c, (x, y)) ->
      (* evaluate the constraint's truth concretely; the abstract forward
         value must consider that outcome possible *)
      let store =
        Hc4.create_store
          [ ("x", Dom.intn x x); ("y", Dom.intn y y) ]
      in
      let concrete = sat_at c x y in
      match Hc4.fwd store c with
      | Dom.Dbool { can_true; can_false } ->
        if concrete then can_true else can_false
      | _ -> false)

(* --- the trail check against a copy -------------------------------------- *)

(* [Hc4.propagate_and_restore] on a box must answer as [propagate] on a
   copy of it does, and leave the box so that any later propagation
   (answer, domains, memo hits, rounds) is the one a pristine copy
   gives.  Boxes mix bool, int and real variables and carry memo
   entries from a prefix propagation, as the symbolic executor's prefix
   boxes do; some constraints hold a vector constant and raise
   [Value.Type_error]. *)
let mixed_vars = [ "b0"; "b1"; "i0"; "i1"; "r0"; "r1" ]

let gen_box =
  let open QCheck.Gen in
  let bool_dom = oneofl [ Dom.top_bool; Dom.booln true; Dom.booln false ] in
  let int_dom =
    map2 (fun lo span -> Dom.intn lo (lo + span)) (int_range (-20) 10)
      (int_range 0 20)
  in
  let real_dom =
    map2 (fun lo span -> Dom.realn lo (lo +. span)) (float_range (-10.) 5.)
      (float_range 0. 10.)
  in
  map3
    (fun (b0, b1) (i0, i1) (r0, r1) ->
      [ ("b0", b0); ("b1", b1); ("i0", i0); ("i1", i1); ("r0", r0); ("r1", r1) ])
    (pair bool_dom bool_dom) (pair int_dom int_dom) (pair real_dom real_dom)

let vec_cst = T.cst (V.Vec [| V.Int 1; V.Int 2 |])

let gen_mixed_constraint =
  let open QCheck.Gen in
  let int_leaf =
    oneof
      [ map T.cint (int_range (-20) 20); oneofl [ T.var "i0"; T.var "i1" ] ]
  in
  let real_leaf =
    oneof
      [
        map T.creal (float_range (-10.) 10.);
        oneofl [ T.var "r0"; T.var "r1" ];
        map (T.unop Ir.To_real) int_leaf;
      ]
  in
  let num leaf ops =
    oneof
      [ leaf; map3 (fun op a b -> T.binop op a b) (oneofl ops) leaf leaf ]
  in
  let int_num = num int_leaf [ Ir.Add; Ir.Sub; Ir.Mul; Ir.Min; Ir.Max ] in
  let real_num = num real_leaf [ Ir.Add; Ir.Sub; Ir.Mul; Ir.Div ] in
  let ops = [ Ir.Eq; Ir.Ne; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge ] in
  let atom =
    frequency
      [
        (4, map3 T.cmp (oneofl ops) int_num int_num);
        (4, map3 T.cmp (oneofl ops) real_num real_num);
        (2, oneofl [ T.var "b0"; T.var "b1" ]);
        ( 1,
          map
            (fun op -> T.cmp op (T.var "b0") (T.var "b1"))
            (oneofl [ Ir.Eq; Ir.Ne ]) );
        (1, map (fun a -> T.cmp Ir.Eq a vec_cst) int_leaf);
      ]
  in
  let rec bool_expr depth =
    if depth = 0 then atom
    else
      let sub = bool_expr (depth - 1) in
      frequency
        [
          (2, atom);
          (2, map2 T.and_ sub sub);
          (1, map2 T.or_ sub sub);
          (1, map T.not_ sub);
          (1, map3 T.ite sub sub sub);
        ]
  in
  bool_expr 3

let memo_hits = Telemetry.Counter.make "solver.hc4_memo_hits"
let rounds = Telemetry.Counter.make "solver.hc4_rounds"
let box_doms store = List.map (Hc4.get store) mixed_vars

let outcome f =
  match f () with r -> Ok r | exception V.Type_error m -> Error m

(* answer, domains and counter deltas of one later propagation *)
let later_propagation store d =
  let h0 = Telemetry.Counter.total memo_hits in
  let r0 = Telemetry.Counter.total rounds in
  let answer = outcome (fun () -> Hc4.propagate store d) in
  ( answer,
    box_doms store,
    Telemetry.Counter.total memo_hits - h0,
    Telemetry.Counter.total rounds - r0 )

let trail_matches_copy box_spec prefix c d =
  Telemetry.enable ();
  let box = Hc4.create_store box_spec in
  ignore (outcome (fun () -> Hc4.propagate ~max_rounds:3 box prefix));
  let pristine = Hc4.copy_store box in
  let by_copy =
    outcome (fun () -> Hc4.propagate ~max_rounds:3 (Hc4.copy_store box) c)
  in
  let by_trail =
    outcome (fun () -> Hc4.propagate_and_restore ~max_rounds:3 box c)
  in
  let same =
    by_copy = by_trail
    && box_doms box = box_doms pristine
    && later_propagation box d = later_propagation pristine d
  in
  Telemetry.disable ();
  same

let prop_trail_matches_copy =
  QCheck.Test.make ~name:"trail check = propagation on a copy" ~count:500
    (QCheck.make
       QCheck.Gen.(
         let* box = gen_box in
         let* prefix = gen_mixed_constraint in
         (* shared subterms make the memo entries of one call matter
            to the next *)
         let* c = oneof [ return prefix; gen_mixed_constraint ] in
         let+ d = oneof [ return prefix; return c; gen_mixed_constraint ] in
         (box, prefix, c, d)))
    (fun (box_spec, prefix, c, d) -> trail_matches_copy box_spec prefix c d)

(* A check that narrows the box and then raises restores the box.  The
   conjuncts' order is the hash order, so vary both until, on a copy,
   the raise comes after a narrowing. *)
let test_trail_restores_on_type_error () =
  let box_spec =
    [
      ("b0", Dom.top_bool); ("b1", Dom.top_bool);
      ("i0", Dom.intn 0 20); ("i1", Dom.intn 0 20);
      ("r0", Dom.realn 0. 1.); ("r1", Dom.realn 0. 1.);
    ]
  in
  let narrowed_first = ref 0 in
  for k = 0 to 19 do
    let c =
      T.and_ (T.var "b0")
        (T.cmp Ir.Eq (T.var "i1") (T.cst (V.Vec [| V.Int k |])))
    in
    let copy = Hc4.create_store box_spec in
    (match Hc4.propagate copy c with
     | _ -> Alcotest.fail "a vector constant must raise"
     | exception V.Type_error _ -> ());
    if Hc4.get copy "b0" <> Dom.top_bool then incr narrowed_first;
    check Alcotest.bool "box restored" true
      (trail_matches_copy box_spec (T.cbool true) c
         (T.cmp Ir.Le (T.var "i0") (T.cint k)))
  done;
  check Alcotest.bool "some check narrowed before raising" true
    (!narrowed_first > 0)

(* --- explicit regression cases ---------------------------------------- *)

let test_propagate_equality_chain () =
  let c =
    T.and_
      (T.cmp Ir.Eq (T.var "x") (T.binop Ir.Add (T.var "y") (T.cint 3)))
      (T.cmp Ir.Eq (T.var "y") (T.cint 4))
  in
  let store =
    Hc4.create_store
      [ ("x", Dom.intn 0 100); ("y", Dom.intn 0 100) ]
  in
  (match Hc4.propagate store c with
   | `Ok -> ()
   | `Unsat -> Alcotest.fail "chain is satisfiable");
  check Alcotest.bool "x pinned to 7" true
    (Dom.singleton_value (Hc4.get store "x") = Some (V.Int 7))

let test_propagate_refutes_disjoint () =
  let c =
    T.and_
      (T.cmp Ir.Lt (T.var "x") (T.cint 10))
      (T.cmp Ir.Gt (T.var "x") (T.cint 20))
  in
  let store = Hc4.create_store [ ("x", Dom.intn 0 100) ] in
  match Hc4.propagate store c with
  | `Unsat -> ()
  | `Ok -> Alcotest.fail "expected refutation"

let test_bool_coercion_to_real () =
  (* To_real over a boolean domain, as switch controls compile.
     Propagation alone only guarantees soundness (closed intervals
     cannot express strict bounds), but the full solver must decide. *)
  let c = T.cmp Ir.Gt (T.unop Ir.To_real (T.var "b")) (T.creal 0.0) in
  let store = Hc4.create_store [ ("b", Dom.top_bool) ] in
  (match Hc4.propagate store c with
   | `Ok -> ()
   | `Unsat -> Alcotest.fail "satisfiable constraint refuted");
  check Alcotest.bool "true survives propagation" true
    (Dom.member (Hc4.get store "b") (V.Bool true));
  match
    Solver.Csp.solve { Solver.Csp.p_vars = [ ("b", V.Tbool) ]; p_constraint = c }
  with
  | Solver.Csp.Sat a, _ ->
    check Alcotest.bool "solver picks true" true
      (V.to_bool (Solver.Csp.Smap.find "b" a))
  | (Solver.Csp.Unsat | Solver.Csp.Unknown), _ ->
    Alcotest.fail "solver must find b = true"

let () =
  Alcotest.run "propagation"
    [
      ( "dom-laws",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_meet_commutative; prop_hull_contains_both;
            prop_meet_lower_bound; prop_split_partitions;
          ] );
      ( "hc4-soundness",
        List.map QCheck_alcotest.to_alcotest
          [ prop_propagation_keeps_solutions; prop_forward_eval_contains_value ] );
      ( "trail check",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 17 |])
            prop_trail_matches_copy;
          Alcotest.test_case "restored on Type_error" `Quick
            test_trail_restores_on_type_error;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "equality chain" `Quick test_propagate_equality_chain;
          Alcotest.test_case "disjoint refuted" `Quick test_propagate_refutes_disjoint;
          Alcotest.test_case "bool-to-real" `Quick test_bool_coercion_to_real;
        ] );
    ]
