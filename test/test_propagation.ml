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
    Fuzzer.Term_eval.eval
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

(* --- search splits ------------------------------------------------------ *)

(* A search split made by [split_store] shares its parent's memo
   tables; it must answer as a copy with [set_dom] does, also after the
   sibling half has run on the shared tables (the order [Csp]'s depth
   first search uses them in). *)
let prop_split_matches_copy =
  QCheck.Test.make ~name:"split_store = copy_store + set_dom" ~count:300
    (QCheck.make
       QCheck.Gen.(
         let* spec = gen_box in
         let* prefix = gen_mixed_constraint in
         let* x = oneofl [ "i0"; "r1"; "b0" ] in
         let* c = oneof [ return prefix; gen_mixed_constraint ] in
         let+ d = oneof [ return prefix; return c; gen_mixed_constraint ] in
         (spec, prefix, x, c, d)))
    (fun (spec, prefix, x, c, d) ->
      Telemetry.enable ();
      let store = Hc4.create_store spec in
      let same =
        match Hc4.propagate ~max_rounds:3 store prefix with
        | exception V.Type_error _ -> true
        | `Unsat -> true
        | `Ok -> (
          match Dom.split (Hc4.get store x) with
          | None -> true
          | Some (l, r) ->
            (* the copies first: a split writes into [store]'s tables *)
            let copy dom =
              let s = Hc4.copy_store store in
              Hc4.set_dom s x dom;
              s
            in
            let left' = copy l and right' = copy r in
            let left = later_propagation (Hc4.split_store store x l) c in
            let right = Hc4.split_store store x r in
            left = later_propagation left' c
            && later_propagation right d = later_propagation right' d
            && later_propagation right c = later_propagation right' c)
      in
      Telemetry.disable ();
      same)

(* --- memo tables against a Hashtbl model --------------------------------- *)

(* Requirements with [nan], [-0.] and [0.] bounds: the table's key
   equality must be [Hashtbl]'s ([compare = 0]). *)
let gen_req =
  QCheck.Gen.oneofl
    [
      Dom.top_bool; Dom.booln true; Dom.booln false;
      Dom.Dbool { can_true = true; can_false = true };
      Dom.intn 0 0; Dom.intn (-3) 5; Dom.intn (-3) 5;
      Dom.Dreal { lo = Float.nan; hi = 1.0 };
      Dom.Dreal { lo = Float.nan; hi = 1.0 };
      Dom.Dreal { lo = -0.0; hi = 0.0 }; Dom.Dreal { lo = 0.0; hi = -0.0 };
      Dom.realn 0.5 2.5;
    ]

type table_op = Bind of int * Dom.t * int * Dom.t | Find of int * Dom.t

let gen_table_ops ~by_req =
  let open QCheck.Gen in
  let req = if by_req then gen_req else return Hc4.no_req in
  list_size (int_range 1 300)
    (frequency
       [
         ( 2,
           map3
             (fun (id, r) g v -> Bind (id, r, g, v))
             (pair (int_range 0 60) req)
             (int_range (-1) 5) gen_req );
         (3, map2 (fun id r -> Find (id, r)) (int_range 0 60) req);
       ])

(* A bind to generation -1 is an undone insertion: absent. *)
let table_matches_model ~by_req ops =
  let t = Hc4.new_table ~by_req 16 in
  let model = Hashtbl.create 16 in
  let lookup id r =
    let i = Hc4.slot t id r in
    if t.Hc4.gens.(i) = -1 then None
    else Some (t.Hc4.gens.(i), if by_req then Dom.top_bool else t.Hc4.doms.(i))
  in
  List.for_all
    (function
      | Bind (id, r, g, v) ->
        Hc4.bind t id r g v;
        if g = -1 then Hashtbl.remove model (id, r)
        else
          Hashtbl.replace model (id, r) (g, if by_req then Dom.top_bool else v);
        true
      | Find (id, r) -> (
        match lookup id r, Hashtbl.find_opt model (id, r) with
        | None, None -> true
        | Some (g, v), Some (g', v') -> g = g' && v == v'
        | Some _, None | None, Some _ -> false))
    ops

let prop_table_matches_model =
  QCheck.Test.make ~name:"memo tables = Hashtbl model" ~count:300
    (QCheck.make
       QCheck.Gen.(
         let* by_req = bool in
         let+ ops = gen_table_ops ~by_req in
         (by_req, ops)))
    (fun (by_req, ops) -> table_matches_model ~by_req ops)

(* --- flat intervals against the former ones ----------------------------- *)

module I = Solver.Interval
module R = Ref_interval

let gen_bound =
  QCheck.Gen.(
    frequency
      [
        ( 1,
          oneofl
            [
              Float.nan; -.Float.nan; 0.0; -0.0; infinity; neg_infinity; 1e18;
              -1e18; max_float; -.max_float; 1.0; -1.0; 0.5;
            ] );
        (2, map float_of_int (int_range (-20) 20));
        (1, float_range (-1e3) 1e3);
      ])

(* Mostly ordered pairs, so most operations do not just raise. *)
let gen_num_pair =
  QCheck.Gen.(
    map3
      (fun a b nint ->
        let lo, hi = if a <= b then (a, b) else (b, a) in
        (lo, hi, nint))
      gen_bound gen_bound bool)

let flat (lo, hi, nint) = { I.nlo = lo; nhi = hi; nint = I.int_flag nint }
let former (lo, hi, nint) = { R.nlo = lo; nhi = hi; nint }
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_num (a : I.num) (b : R.num) =
  same_bits a.nlo b.nlo && same_bits a.nhi b.nhi && I.is_int a = b.nint

let same_dom a b =
  match a, b with
  | Dom.Dreal x, Dom.Dreal y -> same_bits x.lo y.lo && same_bits x.hi y.hi
  | Dom.Dint x, Dom.Dint y -> x.lo = y.lo && x.hi = y.hi
  | Dom.Dbool x, Dom.Dbool y ->
    x.can_true = y.can_true && x.can_false = y.can_false
  | (Dom.Dreal _ | Dom.Dint _ | Dom.Dbool _), _ -> false

(* both raise [Dom.Empty], or both return agreeing values *)
let agree same f g =
  match f (), g () with
  | a, b -> same a b
  | exception Dom.Empty -> (
    match g () with _ -> false | exception Dom.Empty -> true)
  | exception _ -> false

let binops =
  [
    (I.nadd, R.nadd); (I.nsub, R.nsub); (I.nmul, R.nmul); (I.ndiv, R.ndiv);
    (I.nmod, R.nmod); (I.nmin, R.nmin); (I.nmax, R.nmax); (I.nmeet, R.nmeet);
  ]

let unops =
  [
    (I.nneg, R.nneg); (I.nabs, R.nabs); (I.nfloor, R.nfloor);
    (I.nceil, R.nceil); (I.ntrunc, R.ntrunc);
  ]

let prop_flat_ops_match =
  QCheck.Test.make ~name:"flat interval ops = former ops, bit for bit"
    ~count:2000
    (QCheck.make QCheck.Gen.(pair gen_num_pair gen_num_pair))
    (fun (((alo, _, aint) as a), ((_, bhi, _) as b)) ->
      List.for_all
        (fun (f, g) ->
          agree same_num
            (fun () -> f (flat a) (flat b))
            (fun () -> g (former a) (former b)))
        binops
      && List.for_all
           (fun (f, g) ->
             agree same_num (fun () -> f (flat a)) (fun () -> g (former a)))
           unops
      && agree same_dom
           (fun () -> I.dom_of_num (flat a))
           (fun () -> R.dom_of_num (former a))
      && agree same_num
           (fun () -> I.nmk aint alo bhi)
           (fun () -> R.nmk aint alo bhi))

let gen_dom =
  QCheck.Gen.(
    oneof
      [
        oneofl [ Dom.top_bool; Dom.booln true; Dom.booln false ];
        map2
          (fun a b -> Dom.Dint { lo = min a b; hi = max a b })
          (oneof
             [
               int_range (-5) 5;
               oneofl [ 1_000_000_000_000_000_000; -1_000_000_000_000_000_000 ];
             ])
          (int_range (-5) 5);
        map (fun (lo, hi, _) -> Dom.Dreal { lo; hi }) gen_num_pair;
      ])

let b3_pairs =
  let all = [ (true, true); (true, false); (false, true); (false, false) ] in
  List.concat_map (fun a -> List.map (fun b -> (a, b)) all) all

let same_b3 (a : I.bool3) (b : R.bool3) = a.bt = b.bt && a.bf = b.bf

let prop_dom_conversions_match =
  QCheck.Test.make ~name:"num/bool3 conversions = former ones" ~count:500
    (QCheck.make gen_dom)
    (fun d ->
      agree same_num (fun () -> I.num_of_dom d) (fun () -> R.num_of_dom d)
      && agree same_b3 (fun () -> I.b3_of_dom d) (fun () -> R.b3_of_dom d)
      && List.for_all
           (fun v ->
             agree same_num (fun () -> I.num_of_value v)
               (fun () -> R.num_of_value v))
           [ V.Int 3; V.Int (-1_000_000_000_000_000_000); V.Bool true;
             V.Real (-0.0); V.Real Float.nan ]
      && List.for_all
           (fun ((at, af), (bt, bf)) ->
             let a = I.b3 at af and b = I.b3 bt bf in
             let a' = { R.bt = at; bf = af } and b' = { R.bt; bf } in
             agree same_b3 (fun () -> I.b3_and a b) (fun () -> R.b3_and a' b')
             && agree same_b3 (fun () -> I.b3_or a b) (fun () -> R.b3_or a' b')
             && agree same_b3 (fun () -> I.b3_not a) (fun () -> R.b3_not a')
             && agree same_b3 (fun () -> I.b3_meet a b)
                  (fun () -> R.b3_meet a' b')
             && agree same_b3 (fun () -> I.b3_join a b)
                  (fun () -> R.b3_join a' b')
             && agree same_dom (fun () -> I.dom_of_b3 a)
                  (fun () -> R.dom_of_b3 a'))
           b3_pairs)

(* --- allocation regressions ------------------------------------------------ *)

let minor_words_of f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* Memo hits, [get] and the shared boolean domains allocate nothing.
   Telemetry is off, so a counter bump is a flag test. *)
let test_hits_allocate_nothing () =
  Telemetry.disable ();
  let x = T.var "ax" and y = T.var "ay" in
  let sum = T.binop Ir.Add x (T.binop Ir.Mul y (T.cint 3)) in
  let c = T.cmp Ir.Le sum (T.cint 1000) in
  let bindings = [ ("ax", Dom.intn 0 10); ("ay", Dom.realn 0. 1.) ] in
  let store = Hc4.create_store bindings in
  ignore (Hc4.fwd store sum);
  Hc4.bwd store c Dom.bool_true;
  let name = "ax" and yes = I.b3_true in
  let baseline = minor_words_of (fun () -> ()) in
  List.iter
    (fun (what, f) ->
      ignore (f ());
      check (Alcotest.float 0.) (what ^ " allocates nothing") 0.
        (minor_words_of f -. baseline))
    [
      ("a forward memo hit", fun () -> ignore (Hc4.fwd store sum));
      ("a backward memo hit", fun () -> Hc4.bwd store c Dom.bool_true);
      ("Hc4.get", fun () -> ignore (Hc4.get store name));
      ("Hc4.get_slot", fun () -> ignore (Hc4.get_slot store 1));
      ("Dom.booln", fun () -> ignore (Dom.booln true));
      ("Interval.dom_of_b3", fun () -> ignore (I.dom_of_b3 yes));
    ]

(* A search split: [Csp.choose_split] scans the slots without
   allocating, and the split allocates only the two halves (an int
   domain is 3 words), the new store (9 fields) and its domain array. *)
let test_split_allocates_halves_and_store () =
  Telemetry.disable ();
  let bindings =
    [ ("sa", Dom.intn 0 10); ("sb", Dom.intn (-50) 50); ("sc", Dom.top_bool) ]
  in
  let layout = Hc4.layout bindings in
  let store = Hc4.create layout (Array.of_list (List.map snd bindings)) in
  check Alcotest.int "the widest domain" 1 (Solver.Csp.choose_split layout store);
  let split () =
    let slot = layout.Hc4.live.(Solver.Csp.choose_split layout store) in
    let d = Hc4.get_slot store slot in
    ignore (Sys.opaque_identity (Dom.upper d));
    Hc4.split_slot store slot (Dom.lower d)
  in
  let baseline = minor_words_of (fun () -> ()) in
  ignore (split ());
  check (Alcotest.float 0.) "choose_split allocates nothing" 0.
    (minor_words_of (fun () -> Solver.Csp.choose_split layout store) -. baseline);
  check (Alcotest.float 0.) "a split: two halves and a store" (6. +. 10. +. 4.)
    (minor_words_of split -. baseline);
  check Alcotest.bool "the lower half" true
    (Dom.equal (Hc4.get (split ()) "sb") (Dom.intn (-50) 0))

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
      ( "store reuse",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 22 |])
            prop_split_matches_copy;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19 |])
            prop_table_matches_model;
        ] );
      ( "flat interval",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20 |])
            prop_flat_ops_match;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 21 |])
            prop_dom_conversions_match;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "hits allocate nothing" `Quick
            test_hits_allocate_nothing;
          Alcotest.test_case "a split allocates its halves and store" `Quick
            test_split_allocates_halves_and_store;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "equality chain" `Quick test_propagate_equality_chain;
          Alcotest.test_case "disjoint refuted" `Quick test_propagate_refutes_disjoint;
          Alcotest.test_case "bool-to-real" `Quick test_bool_coercion_to_real;
        ] );
    ]
