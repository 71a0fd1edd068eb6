(* Tests for the interval-propagation constraint solver. *)

module V = Slim.Value
module Ir = Slim.Ir
module T = Solver.Term
module Csp = Solver.Csp
module Dom = Solver.Dom

let check = Alcotest.check

let solve ?budget vars c =
  fst (Csp.solve ?node_budget:budget { Csp.p_vars = vars; p_constraint = c })

let get_sat = function
  | Csp.Sat a -> a
  | Csp.Unsat -> Alcotest.fail "expected sat, got unsat"
  | Csp.Unknown -> Alcotest.fail "expected sat, got unknown"

let ivar x = T.var x
let i_ty lo hi = V.tint_range lo hi
let r_ty lo hi = V.treal_range lo hi

let test_linear_int () =
  (* x + 3 <= 5 over [0,100] *)
  let c = T.cmp Ir.Le (T.binop Ir.Add (ivar "x") (T.cint 3)) (T.cint 5) in
  let a = get_sat (solve [ ("x", i_ty 0 100) ] c) in
  let x = V.to_int (Csp.Smap.find "x" a) in
  check Alcotest.bool "x <= 2" true (x >= 0 && x <= 2)

let test_equality () =
  let c = T.cmp Ir.Eq (ivar "x") (T.cint 42) in
  let a = get_sat (solve [ ("x", i_ty 0 1000) ] c) in
  check Alcotest.int "x = 42" 42 (V.to_int (Csp.Smap.find "x" a))

let test_unsat_conflict () =
  let c =
    T.and_
      (T.cmp Ir.Gt (ivar "x") (T.cint 5))
      (T.cmp Ir.Lt (ivar "x") (T.cint 3))
  in
  (match solve [ ("x", i_ty 0 100) ] c with
   | Csp.Unsat -> ()
   | Csp.Sat _ -> Alcotest.fail "expected unsat"
   | Csp.Unknown -> Alcotest.fail "expected unsat, got unknown")

let test_unsat_out_of_domain () =
  let c = T.cmp Ir.Eq (ivar "x") (T.cint 500) in
  (match solve [ ("x", i_ty 0 100) ] c with
   | Csp.Unsat -> ()
   | _ -> Alcotest.fail "expected unsat")

let test_disjunction () =
  let c =
    T.or_
      (T.cmp Ir.Eq (ivar "x") (T.cint 7))
      (T.cmp Ir.Eq (ivar "x") (T.cint 93))
  in
  let a = get_sat (solve [ ("x", i_ty 0 100) ] c) in
  let x = V.to_int (Csp.Smap.find "x" a) in
  check Alcotest.bool "x in {7,93}" true (x = 7 || x = 93)

let test_bool_vars () =
  let c =
    T.and_ (ivar "p") (T.not_ (ivar "q"))
  in
  let a = get_sat (solve [ ("p", V.Tbool); ("q", V.Tbool) ] c) in
  check Alcotest.bool "p" true (V.to_bool (Csp.Smap.find "p" a));
  check Alcotest.bool "q" false (V.to_bool (Csp.Smap.find "q" a))

let test_two_vars_relation () =
  (* x = y + 10 && x <= 12 -> y <= 2 *)
  let c =
    T.and_
      (T.cmp Ir.Eq (ivar "x") (T.binop Ir.Add (ivar "y") (T.cint 10)))
      (T.cmp Ir.Le (ivar "x") (T.cint 12))
  in
  let a = get_sat (solve [ ("x", i_ty 0 100); ("y", i_ty 0 100) ] c) in
  let x = V.to_int (Csp.Smap.find "x" a) in
  let y = V.to_int (Csp.Smap.find "y" a) in
  check Alcotest.int "x = y + 10" x (y + 10);
  check Alcotest.bool "x <= 12" true (x <= 12)

let test_real_band () =
  let c =
    T.and_
      (T.cmp Ir.Gt (ivar "x") (T.creal 0.5))
      (T.cmp Ir.Lt (ivar "x") (T.creal 0.6))
  in
  let a = get_sat (solve [ ("x", r_ty 0.0 1000.0) ] c) in
  let x = V.to_real (Csp.Smap.find "x" a) in
  check Alcotest.bool "0.5 < x < 0.6" true (x > 0.5 && x < 0.6)

let test_ite_term () =
  (* (x > 0 ? 10 : 20) = 20 forces x <= 0 *)
  let c =
    T.cmp Ir.Eq
      (T.ite (T.cmp Ir.Gt (ivar "x") (T.cint 0)) (T.cint 10) (T.cint 20))
      (T.cint 20)
  in
  let a = get_sat (solve [ ("x", i_ty (-50) 50) ] c) in
  check Alcotest.bool "x <= 0" true (V.to_int (Csp.Smap.find "x" a) <= 0)

let test_abs_min_max () =
  let c =
    T.and_
      (T.cmp Ir.Eq (T.unop Ir.Abs_op (ivar "x")) (T.cint 4))
      (T.cmp Ir.Lt (ivar "x") (T.cint 0))
  in
  let a = get_sat (solve [ ("x", i_ty (-10) 10) ] c) in
  check Alcotest.int "x = -4" (-4) (V.to_int (Csp.Smap.find "x" a));
  let c2 =
    T.cmp Ir.Ge (T.binop Ir.Min (ivar "y") (T.cint 5)) (T.cint 5)
  in
  let a2 = get_sat (solve [ ("y", i_ty 0 100) ] c2) in
  check Alcotest.bool "min(y,5)>=5 -> y>=5" true
    (V.to_int (Csp.Smap.find "y" a2) >= 5)

let test_constant_fold () =
  let c = T.cmp Ir.Lt (T.binop Ir.Add (T.cint 2) (T.cint 3)) (T.cint 10) in
  check Alcotest.bool "folded to true" true (T.is_const c = Some (V.Bool true));
  match solve [] c with
  | Csp.Sat _ -> ()
  | _ -> Alcotest.fail "trivially sat"

(* A variable compared with itself folds when the term is built; a
   compound operand, which can raise or be NaN, keeps its node. *)
let test_self_comparison () =
  let x = ivar "x" in
  List.iter
    (fun (op, want) ->
      check Alcotest.bool
        (Fmt.str "x %a x" Ir.pp_cmpop op)
        true
        (T.is_const (T.cmp op x x) = Some (V.Bool want)))
    [
      (Ir.Eq, true); (Ir.Le, true); (Ir.Ge, true);
      (Ir.Ne, false); (Ir.Lt, false); (Ir.Gt, false);
    ];
  let q = T.binop Ir.Div x (ivar "y") in
  check Alcotest.bool "x / y = x / y stays a node" true
    (T.is_const (T.cmp Ir.Eq q q) = None)

(* The shape of LANSwitch's learn-then-lookup queries: a table cell
   written with [vlan] and compared with [vlan] in the same step, next
   to a constraint on two 16-bit inputs.  Interval propagation cannot
   refute [!(v == v)] while [v] is not a point, so unfolded it spent
   the whole node budget splitting [src] and [dst]; folded, the
   conjunction is [false] and the search never starts. *)
let test_self_comparison_lanswitch () =
  let w = i_ty 0 65535 in
  let c =
    T.and_
      (T.not_ (T.cmp Ir.Eq (ivar "vlan") (ivar "vlan")))
      (T.cmp Ir.Eq (ivar "src") (ivar "dst"))
  in
  let result, stats =
    Csp.solve { Csp.p_vars = [ ("src", w); ("dst", w); ("vlan", w) ]; p_constraint = c }
  in
  (match result with
   | Csp.Unsat -> ()
   | Csp.Sat _ | Csp.Unknown -> Alcotest.fail "expected unsat");
  check Alcotest.bool "folded to false" true (T.is_const c = Some (V.Bool false));
  check Alcotest.bool "at most one node" true (stats.Csp.nodes <= 1)

let test_mod_via_sampling () =
  let c =
    T.cmp Ir.Eq (T.binop Ir.Mod (ivar "x") (T.cint 2)) (T.cint 0)
  in
  let a = get_sat (solve [ ("x", i_ty 0 100) ] c) in
  check Alcotest.int "even" 0 (V.to_int (Csp.Smap.find "x" a) mod 2)

let test_unknown_on_hard_real () =
  (* x * x = 2 over reals: no float sampled by our heuristics satisfies it
     exactly, and intervals cannot refute it -> Unknown, not Unsat. *)
  let c =
    T.cmp Ir.Eq (T.binop Ir.Mul (ivar "x") (ivar "x")) (T.creal 2.0)
  in
  match solve ~budget:500 [ ("x", r_ty 0.0 2.0) ] c with
  | Csp.Unknown -> ()
  | Csp.Sat a ->
    (* accept a genuinely satisfying float if one is found *)
    let x = V.to_real (Csp.Smap.find "x" a) in
    check (Alcotest.float 1e-9) "exact" 2.0 (x *. x)
  | Csp.Unsat -> Alcotest.fail "must not refute x*x=2 over reals"

let test_budget_exhaustion_returns_unknown () =
  (* An unsatisfiable Diophantine-flavoured constraint that propagation
     cannot refute quickly: tiny budget must yield Unknown. *)
  let xx = T.binop Ir.Mul (ivar "x") (ivar "x") in
  let yy = T.binop Ir.Mul (ivar "y") (ivar "y") in
  let c =
    T.and_
      (T.cmp Ir.Eq (T.binop Ir.Add xx yy) (T.cint 99991))
      (T.cmp Ir.Gt (ivar "x") (ivar "y"))
  in
  match solve ~budget:5 [ ("x", i_ty 0 100000); ("y", i_ty 0 100000) ] c with
  | Csp.Unknown -> ()
  | Csp.Sat a ->
    let x = V.to_int (Csp.Smap.find "x" a) in
    let y = V.to_int (Csp.Smap.find "y" a) in
    check Alcotest.int "verified" 99991 ((x * x) + (y * y))
  | Csp.Unsat -> Alcotest.fail "budget 5 cannot prove unsat here"

let test_array_fold_via_ite_chain () =
  (* The shape produced by symbolic array reads: find i such that
     queue[i] = 7 where queue is the constant [3; 7; 0]. *)
  let read i =
    T.ite
      (T.cmp Ir.Eq i (T.cint 0))
      (T.cint 3)
      (T.ite (T.cmp Ir.Eq i (T.cint 1)) (T.cint 7) (T.cint 0))
  in
  let c = T.cmp Ir.Eq (read (ivar "i")) (T.cint 7) in
  let a = get_sat (solve [ ("i", i_ty 0 2) ] c) in
  check Alcotest.int "index found" 1 (V.to_int (Csp.Smap.find "i" a))

(* --- directed HC4 projection tests: mod/abs on awkward domains, and
   the float->int saturation regression found by the fuzzer. *)

let verify vars c a =
  match
    Fuzzer.Term_eval.eval
      (fun x ->
        match Csp.Smap.find_opt x a with
        | Some v -> v
        | None -> V.default_of_ty (List.assoc x vars))
      c
  with
  | V.Bool b -> b
  | _ -> false

let test_div_overflow_regression () =
  (* fuzz seed 0, case 180: i0 > i20 / (i0 + i0).  The denominator
     interval crosses zero, so forward division returns a huge top
     interval; backward multiplication then produced bounds beyond
     max_int, and the unsaturated float->int conversion in
     [Dom.meet Dint/Dreal] wrapped them negative — an empty domain and
     an unsound Unsat (witness: i0=1.78, i20=-2). *)
  let vars = [ ("i0", r_ty (-4.) 4.); ("i20", i_ty (-6) 6) ] in
  let c =
    T.cmp Ir.Gt (ivar "i0")
      (T.binop Ir.Div (ivar "i20") (T.binop Ir.Add (ivar "i0") (ivar "i0")))
  in
  match solve vars c with
  | Csp.Sat a -> check Alcotest.bool "verified" true (verify vars c a)
  | Csp.Unsat -> Alcotest.fail "sound witness exists (i0=1.78, i20=-2)"
  | Csp.Unknown -> ()

let test_dom_meet_saturates () =
  (* the raw conversion wraps: 8e18 -> large negative *)
  check Alcotest.bool "int_of_float_down saturates positive" true
    (Dom.int_of_float_down 8e18 > 0);
  check Alcotest.bool "int_of_float_up saturates negative" true
    (Dom.int_of_float_up (-8e18) < 0);
  match Dom.meet (Dom.intn (-6) 6) (Dom.realn (-8e18) 8e18) with
  | Dom.Dint { lo; hi } ->
    check Alcotest.int "lo" (-6) lo;
    check Alcotest.int "hi" 6 hi
  | _ -> Alcotest.fail "expected an int domain"
  | exception Dom.Empty -> Alcotest.fail "huge real bounds emptied the meet"

let test_bwd_num_large_int_bounds () =
  (* [Hc4.bwd_num] clamped integer requirements to +-1e9: a required
     bound beyond that built an inverted domain and an unsound Unsat
     (witnesses x = y = 1e6 and x = -y = 1e6). *)
  let vars =
    [ ("x", i_ty (-1_000_000) 1_000_000); ("y", i_ty (-1_000_000) 1_000_000) ]
  in
  let xy = T.binop Ir.Mul (ivar "x") (ivar "y") in
  List.iter
    (fun (name, c) ->
      let a = get_sat (solve vars c) in
      check Alcotest.bool (name ^ ": verified") true (verify vars c a))
    [
      ("x*y > 2e9", T.cmp Ir.Gt xy (T.cint 2_000_000_000));
      ("x*y < -2e9", T.cmp Ir.Lt xy (T.cint (-2_000_000_000)));
      ("x*y = 1e12", T.cmp Ir.Eq xy (T.cint 1_000_000_000_000));
    ]

let test_mod_positive_divisor_range () =
  (* sign follows the divisor: x mod 3 is in [0,2], so < 0 is unsat *)
  let c = T.cmp Ir.Lt (T.binop Ir.Mod (ivar "x") (T.cint 3)) (T.cint 0) in
  (match solve [ ("x", i_ty (-10) 10) ] c with
   | Csp.Unsat -> ()
   | _ -> Alcotest.fail "x mod 3 < 0 must be unsat");
  (* and = 2 is reachable (x = -1: Euclidean remainder 2) *)
  let c2 = T.cmp Ir.Eq (T.binop Ir.Mod (ivar "x") (T.cint 3)) (T.cint 2) in
  let vars = [ ("x", i_ty (-10) 10) ] in
  let a = get_sat (solve vars c2) in
  check Alcotest.bool "verified" true (verify vars c2 a)

let test_mod_negative_divisor_range () =
  (* negative divisor: x mod -3 is in [-2,0], so > 0 is unsat... *)
  let c = T.cmp Ir.Gt (T.binop Ir.Mod (ivar "x") (T.cint (-3))) (T.cint 0) in
  (match solve [ ("x", i_ty (-10) 10) ] c with
   | Csp.Unsat -> ()
   | _ -> Alcotest.fail "x mod -3 > 0 must be unsat");
  (* ...and -2 is reachable (x = 1: 1 mod -3 = -2) *)
  let c2 =
    T.cmp Ir.Lt (T.binop Ir.Mod (ivar "x") (T.cint (-3))) (T.cint (-1))
  in
  let vars = [ ("x", i_ty (-10) 10) ] in
  let a = get_sat (solve vars c2) in
  check Alcotest.bool "verified" true (verify vars c2 a)

let test_mod_zero_crossing_divisor () =
  (* divisor domain crossing zero: only the magnitude bound applies,
     so a result beyond max |divisor| is refuted... *)
  let c =
    T.cmp Ir.Eq (T.binop Ir.Mod (ivar "x") (ivar "y")) (T.cint 7)
  in
  (match solve [ ("x", i_ty (-10) 10); ("y", i_ty (-3) 3) ] c with
   | Csp.Unsat -> ()
   | _ -> Alcotest.fail "|x mod y| < 3 cannot equal 7");
  (* ...while a result inside the band stays reachable *)
  let c2 = T.cmp Ir.Eq (T.binop Ir.Mod (ivar "x") (ivar "y")) (T.cint 1) in
  let vars = [ ("x", i_ty (-10) 10); ("y", i_ty (-3) 3) ] in
  let a = get_sat (solve vars c2) in
  check Alcotest.bool "verified" true (verify vars c2 a)

let test_mod_backward_pins_divisor () =
  (* a strictly positive result forces a positive divisor larger than
     the result: x mod y = 2 and y <= 0 together are unsat *)
  let c =
    T.and_
      (T.cmp Ir.Eq (T.binop Ir.Mod (ivar "x") (ivar "y")) (T.cint 2))
      (T.cmp Ir.Le (ivar "y") (T.cint 0))
  in
  (match solve [ ("x", i_ty (-10) 10); ("y", i_ty (-5) 5) ] c with
   | Csp.Unsat -> ()
   | Csp.Sat a ->
     Alcotest.failf "unsound sat: x=%a y=%a"
       V.pp (Csp.Smap.find "x" a) V.pp (Csp.Smap.find "y" a)
   | Csp.Unknown -> ());
  (* and the satisfiable version still solves *)
  let c2 = T.cmp Ir.Eq (T.binop Ir.Mod (ivar "x") (ivar "y")) (T.cint 2) in
  let vars = [ ("x", i_ty (-10) 10); ("y", i_ty (-5) 5) ] in
  let a = get_sat (solve vars c2) in
  check Alcotest.bool "verified" true (verify vars c2 a)

let test_abs_backward_sign () =
  (* |x| >= 3 with x constrained negative narrows into the negative
     branch instead of the naive symmetric hull *)
  let vars = [ ("x", i_ty (-10) 10) ] in
  let c =
    T.and_
      (T.cmp Ir.Ge (T.unop Ir.Abs_op (ivar "x")) (T.cint 3))
      (T.cmp Ir.Le (ivar "x") (T.cint 0))
  in
  let a = get_sat (solve vars c) in
  check Alcotest.bool "x <= -3" true (V.to_int (Csp.Smap.find "x" a) <= -3);
  (* |x| = 2 with x > 0 has exactly one integer solution *)
  let c2 =
    T.and_
      (T.cmp Ir.Eq (T.unop Ir.Abs_op (ivar "x")) (T.cint 2))
      (T.cmp Ir.Gt (ivar "x") (T.cint 0))
  in
  let a2 = get_sat (solve vars c2) in
  check Alcotest.int "x = 2" 2 (V.to_int (Csp.Smap.find "x" a2));
  (* an absolute value is never negative *)
  let c3 = T.cmp Ir.Le (T.unop Ir.Abs_op (ivar "x")) (T.cint (-1)) in
  match solve vars c3 with
  | Csp.Unsat -> ()
  | _ -> Alcotest.fail "|x| <= -1 must be unsat"

(* Soundness property: on random small constraints over small domains,
   Sat answers satisfy and Unsat answers have no brute-force witness. *)
let random_term rng depth =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun i -> T.cint i) (int_range (-5) 5);
        return (ivar "x");
        return (ivar "y") ]
  in
  let rec go depth st =
    if depth = 0 then leaf st
    else
      let sub = go (depth - 1) in
      (oneof
         [ map2 (fun a b -> T.binop Ir.Add a b) sub sub;
           map2 (fun a b -> T.binop Ir.Sub a b) sub sub;
           map2 (fun a b -> T.binop Ir.Min a b) sub sub;
           map2 (fun a b -> T.binop Ir.Max a b) sub sub;
           leaf ])
        st
  in
  let atom st =
    let a = go depth st in
    let b = go depth st in
    let op =
      (oneofl [ Ir.Eq; Ir.Ne; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge ]) st
    in
    T.cmp op a b
  in
  let c st =
    (oneof
       [ map2 T.and_ atom atom;
         map2 T.or_ atom atom;
         map T.not_ atom;
         atom ])
      st
  in
  c rng

let prop_solver_sound =
  QCheck.Test.make ~name:"solver sound on small int constraints" ~count:150
    QCheck.(make (fun rng -> random_term rng 2))
    (fun c ->
      let dom = i_ty (-4) 4 in
      let vars = [ ("x", dom); ("y", dom) ] in
      let result = solve ~budget:50_000 vars c in
      let sat_at x y =
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
      in
      match result with
      | Csp.Sat a ->
        sat_at (V.to_int (Csp.Smap.find "x" a)) (V.to_int (Csp.Smap.find "y" a))
      | Csp.Unsat ->
        let witness = ref false in
        for x = -4 to 4 do
          for y = -4 to 4 do
            if sat_at x y then witness := true
          done
        done;
        not !witness
      | Csp.Unknown -> true)

(* --- the slot-buffer sampler against the map-based one ---------------- *)

(* Problems in the manner of the fuzz [solver] oracle: Mod/Abs/Min/Max
   around zero over int and real ranges that hold zero, real constants in
   halves, bool variables.  The kind adds one twist: a duplicate name in
   [p_vars] (possibly of another type), a constraint variable missing
   from [p_vars], or a division whose divisor range holds zero, so the
   mid sample raises. *)
type kind = Plain | Duplicate | Missing | Div_zero

let kind_name = function
  | Plain -> "plain"
  | Duplicate -> "duplicate"
  | Missing -> "missing"
  | Div_zero -> "div-zero"

let gen_problem rng =
  let int_in lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let choose l = List.nth l (Random.State.int rng (List.length l)) in
  let num_ty () =
    if Random.State.bool rng then i_ty (int_in (-8) 0) (int_in 0 8)
    else r_ty (float_of_int (int_in (-8) 0) /. 2.) (float_of_int (int_in 0 8) /. 2.)
  in
  let nums = List.init (int_in 1 3) (fun i -> (Printf.sprintf "x%d" i, num_ty ())) in
  let bools = List.init (int_in 0 2) (fun i -> (Printf.sprintf "b%d" i, V.Tbool)) in
  let rec num depth =
    let sub () = num (depth - 1) in
    match if depth = 0 then int_in 0 1 else int_in 0 10 with
    | 0 -> ivar (fst (choose nums))
    | 1 ->
      if Random.State.bool rng then T.cint (int_in (-8) 8)
      else T.creal (float_of_int (int_in (-4) 4) /. 2.)
    | 2 -> T.binop Ir.Add (sub ()) (sub ())
    | 3 -> T.binop Ir.Sub (sub ()) (sub ())
    | 4 -> T.binop Ir.Mul (sub ()) (sub ())
    | 5 -> T.binop Ir.Div (sub ()) (sub ())
    | 6 | 7 -> T.binop Ir.Mod (sub ()) (sub ())
    | 8 -> T.binop (choose [ Ir.Min; Ir.Max ]) (sub ()) (sub ())
    | 9 -> T.unop Ir.Abs_op (sub ())
    | _ -> T.unop Ir.Neg (sub ())
  in
  let rec pred depth =
    match int_in 0 (if depth = 0 then 1 else 4) with
    | 1 when bools <> [] -> ivar (fst (choose bools))
    | 0 | 1 -> T.cmp (choose [ Ir.Eq; Ir.Ne; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge ]) (num 2) (num 2)
    | 2 -> T.and_ (pred (depth - 1)) (pred (depth - 1))
    | 3 -> T.or_ (pred (depth - 1)) (pred (depth - 1))
    | _ -> T.not_ (pred (depth - 1))
  in
  let vars = nums @ bools in
  let kind = choose [ Plain; Duplicate; Missing; Div_zero ] in
  let join a b = if Random.State.bool rng then T.and_ a b else T.or_ a b in
  let vars, c =
    match kind with
    | Plain -> (vars, pred 2)
    | Duplicate ->
      (* Either another type under the name, or the same type under a
         constraint that only a random pick meets ([|x| mod 3 = 1] fails
         at mid, lo, hi and zero of a range symmetric about zero), so
         the two entries' draws usually differ and the last must win. *)
      let x, xty = choose nums in
      let hard = Random.State.bool rng in
      let ty = if hard then xty else if Random.State.bool rng then V.Tbool else num_ty () in
      let at = Random.State.int rng (List.length vars + 1) in
      let c =
        if not hard then pred 2
        else
          match xty with
          | V.Treal _ -> T.cmp Ir.Gt (T.binop Ir.Mod (T.unop Ir.Abs_op (ivar x)) (T.creal 1.)) (T.creal 0.5)
          | _ -> T.cmp Ir.Eq (T.binop Ir.Mod (T.unop Ir.Abs_op (ivar x)) (T.cint 3)) (T.cint 1)
      in
      (List.filteri (fun i _ -> i < at) vars @ [ (x, ty) ]
       @ List.filteri (fun i _ -> i >= at) vars, c)
    | Missing ->
      (vars, join (pred 1) (T.cmp Ir.Ge (ivar "ghost") (T.cint (int_in (-2) 2))))
    | Div_zero ->
      let x, _ = choose nums and y, _ = choose nums in
      (vars, join (pred 1) (T.cmp (choose [ Ir.Ge; Ir.Le ]) (T.binop Ir.Div (ivar x) (ivar y)) (T.cint 0)))
  in
  (kind, { Csp.p_vars = vars; p_constraint = c }, int_in 0 1_000_000, choose [ 40; 3000 ])

let print_problem (kind, (p : Csp.problem), seed, budget) =
  Fmt.str "%s seed=%d budget=%d vars=[%a] %a" (kind_name kind) seed budget
    Fmt.(list ~sep:comma (fun ppf (x, ty) -> Fmt.pf ppf "%s:%a" x V.pp_ty ty))
    p.p_vars T.pp p.p_constraint

(* Bit for bit: a real binding compares by its bits, so [-0.] and [0.]
   differ and a NaN equals itself. *)
let same_value a b =
  match a, b with
  | V.Real x, V.Real y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | V.Int x, V.Int y -> x = y
  | V.Bool x, V.Bool y -> x = y
  | _ -> false

let prop_sampler_matches_reference =
  QCheck.Test.make ~name:"solve matches the map-based reference" ~count:400
    (QCheck.make ~print:print_problem gen_problem)
    (fun (_, problem, seed, budget) ->
      let run solve =
        let rng = Random.State.make [| seed |] in
        let r =
          match solve ~node_budget:budget ~rng problem with
          | (res : Csp.result), (st : Csp.stats) ->
            Ok (res, (st.nodes, st.propagation_rounds, st.samples_tried, st.term_size))
          | exception e -> Error (Printexc.to_string e)
        in
        (r, Random.State.bits rng)
      in
      let got, next = run (fun ~node_budget ~rng p -> Csp.solve ~node_budget ~rng p) in
      let want, want_next = run (fun ~node_budget ~rng p -> Ref_csp.solve ~node_budget ~rng p) in
      let same_result =
        match got, want with
        | Ok (Csp.Sat a, s), Ok (Csp.Sat b, t) -> Csp.Smap.equal same_value a b && s = t
        | Ok (Csp.Unsat, s), Ok (Csp.Unsat, t) | Ok (Csp.Unknown, s), Ok (Csp.Unknown, t) -> s = t
        | Error e, Error f -> String.equal e f
        | _ -> false
      in
      same_result && next = want_next)

(* --- the compiled evaluator against the tree walk ---------------------

   Constraints in the manner of [gen_problem] are compiled once and
   evaluated on random candidates by [Compiled] and by the reference
   tree walk ([Fuzzer.Term_eval]): the value must be the same bit for
   bit, or both must raise the same exception.  Operands that raise (a
   vector constant in arithmetic, a division by a range holding zero,
   a name no entry binds) sit under either arm of [&&], [||] and [Ite],
   so an arm not taken must stay unevaluated; [p_vars] holds duplicate
   names, possibly of another type, and the last entry must win; one
   constraint in four is a DAG of shared subterms above 256 nodes, which
   the reference walks with its memo table. *)

module Compiled = Solver.Compiled

let vec_cst = T.cst (V.Vec [| V.Int 1; V.Int 2 |])

let gen_eval_case rng =
  let int_in lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let choose l = List.nth l (Random.State.int rng (List.length l)) in
  let num_ty () =
    if Random.State.bool rng then i_ty (int_in (-4) 0) (int_in 0 4)
    else r_ty (float_of_int (int_in (-4) 0) /. 2.) (float_of_int (int_in 0 4) /. 2.)
  in
  let nums = List.init (int_in 1 3) (fun i -> (Printf.sprintf "x%d" i, num_ty ())) in
  let bools = List.init (int_in 0 2) (fun i -> (Printf.sprintf "b%d" i, V.Tbool)) in
  let vars = nums @ bools in
  let vars =
    if Random.State.bool rng then vars
    else
      let x, _ = choose vars in
      let ty = choose [ V.Tbool; num_ty () ] in
      let at = Random.State.int rng (List.length vars + 1) in
      List.filteri (fun i _ -> i < at) vars @ [ (x, ty) ]
      @ List.filteri (fun i _ -> i >= at) vars
  in
  let names = List.map fst vars in
  let rec num depth =
    let sub () = num (depth - 1) in
    match if depth = 0 then int_in 0 3 else int_in 0 13 with
    | 0 | 1 -> ivar (choose names)
    | 2 ->
      if Random.State.bool rng then T.cint (int_in (-4) 4)
      else T.creal (choose [ 0.; -0.; 0.5; -1.5; 2. ])
    | 3 -> choose [ vec_cst; ivar "ghost"; T.cbool (Random.State.bool rng) ]
    | 4 -> T.binop (choose [ Ir.Add; Ir.Sub; Ir.Mul ]) (sub ()) (sub ())
    | 5 | 6 -> T.binop (choose [ Ir.Div; Ir.Mod ]) (sub ()) (sub ())
    | 7 -> T.binop (choose [ Ir.Min; Ir.Max ]) (sub ()) (sub ())
    | 8 ->
      T.unop
        (choose [ Ir.Neg; Ir.Abs_op; Ir.To_real; Ir.To_int; Ir.Floor; Ir.Ceil; Ir.Not ])
        (sub ())
    | 9 | 10 -> T.ite (pred (depth - 1)) (sub ()) (sub ())
    | _ -> ivar (choose names)
  and pred depth =
    let sub () = pred (depth - 1) in
    match if depth = 0 then int_in 0 1 else int_in 0 6 with
    | 0 -> T.cmp (choose [ Ir.Eq; Ir.Ne; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge ]) (num 2) (num 2)
    | 1 -> num 1
    | 2 -> T.and_ (sub ()) (sub ())
    | 3 -> T.or_ (sub ()) (sub ())
    | 4 -> T.not_ (sub ())
    | 5 -> T.ite (sub ()) (sub ()) (sub ())
    | _ -> T.cmp (choose [ Ir.Eq; Ir.Lt ]) (num 1) (num 1)
  in
  let c =
    if Random.State.int rng 4 > 0 then pred 3
    else begin
      (* each level uses the one below twice *)
      let t = ref (pred 1) in
      while T.size !t <= 256 do
        let p = pred 1 and q = pred 1 in
        t :=
          match int_in 0 2 with
          | 0 -> T.or_ (T.and_ !t p) (T.and_ (T.not_ !t) q)
          | 1 -> T.ite p !t (T.and_ q !t)
          | _ -> T.cmp Ir.Eq (T.ite !t (num 1) (num 0)) (T.ite q (num 0) (T.ite !t (num 1) (num 1)))
      done;
      !t
    end
  in
  let value ty =
    match ty with
    | V.Tbool -> V.Bool (Random.State.bool rng)
    | V.Tint { lo; hi } -> V.Int (int_in lo hi)
    | V.Treal { lo; hi } ->
      (* [nan] and the infinities are never picked, but the evaluator
         takes them as [Value] does *)
      choose
        [ V.Real lo; V.Real hi; V.Real 0.; V.Real (-0.); V.Real ((lo +. hi) /. 2.);
          V.Real Float.nan; V.Real Float.infinity; V.Real Float.neg_infinity ]
    | V.Tvec _ -> assert false
  in
  let candidates = List.init 8 (fun _ -> List.map (fun (_, ty) -> value ty) vars) in
  (vars, c, candidates)

let print_eval_case (vars, c, _) =
  Fmt.str "vars=[%a] %a"
    Fmt.(list ~sep:comma (fun ppf (x, ty) -> Fmt.pf ppf "%s:%a" x V.pp_ty ty))
    vars T.pp c

let rec same_eval_value a b =
  match a, b with
  | V.Vec x, V.Vec y ->
    Array.length x = Array.length y && Array.for_all2 same_eval_value x y
  | _ -> same_value a b

let eval_outcome f =
  match f () with
  | v -> Ok v
  | exception V.Type_error _ -> Error "Type_error"
  | exception Not_found -> Error "Not_found"

(* how often each outcome came up, to check the generator's reach *)
let eval_seen = Hashtbl.create 8

let compiled_matches_reference (vars, c, candidates) =
  let prog = Compiled.compile (Solver.Hc4.layout vars) c in
  List.for_all
    (fun values ->
      List.iteri (Compiled.set_input prog) values;
      let env =
        let last = Hashtbl.create 8 in
        List.iter2 (fun (x, _) v -> Hashtbl.replace last x v) vars values;
        Hashtbl.find last
      in
      let got = eval_outcome (fun () -> Compiled.result prog) in
      let want = eval_outcome (fun () -> Fuzzer.Term_eval.eval env c) in
      let seen key =
        Hashtbl.replace eval_seen key
          (1 + Option.value ~default:0 (Hashtbl.find_opt eval_seen key))
      in
      (match want with
       | Ok _ ->
         seen "value";
         if List.mem "ghost" (T.vars c) then seen "value despite an unbound name";
         if T.size c > 256 then seen "value of a large DAG"
       | Error e -> seen e);
      match got, want with
      | Ok a, Ok b -> same_eval_value a b
      | Error e, Error f -> e = f
      | _ -> false)
    candidates

let prop_compiled_matches_reference =
  QCheck.Test.make ~name:"compiled evaluator = tree walk" ~count:600
    (QCheck.make ~print:print_eval_case gen_eval_case)
    compiled_matches_reference

let test_compiled_matches_reference () =
  Hashtbl.reset eval_seen;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 31 |])
    prop_compiled_matches_reference;
  List.iter
    (fun key ->
      check Alcotest.bool ("reached: " ^ key) true
        (Option.value ~default:0 (Hashtbl.find_opt eval_seen key) > 0))
    [ "value"; "value despite an unbound name"; "value of a large DAG";
      "Type_error"; "Not_found" ]

(* The operands of an arithmetic operation or a comparison evaluate
   right to left in the reference, so when both raise, the second one's
   exception wins; the compiled evaluator keeps that order. *)
let test_compiled_operand_order () =
  let vars = [ ("x", i_ty 0 3) ] in
  let raises_type = T.unop Ir.Neg vec_cst and raises_unbound = ivar "ghost" in
  List.iter
    (fun c ->
      check Alcotest.bool (Fmt.str "%a" T.pp c) true
        (compiled_matches_reference (vars, c, [ [ V.Int 1 ] ])))
    [
      T.cmp Ir.Lt (T.binop Ir.Sub raises_unbound raises_type) (ivar "x");
      T.cmp Ir.Lt (T.binop Ir.Sub raises_type raises_unbound) (ivar "x");
      T.cmp Ir.Le raises_unbound raises_type;
      T.cmp Ir.Le raises_type raises_unbound;
    ]

(* --- allocation ------------------------------------------------------

   As in test_exec: telemetry off, the code warmed, and each operation
   measured with [Gc.minor_words]. *)

let minor_words_of f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let test_eval_allocation () =
  Telemetry.disable ();
  let baseline = minor_words_of (fun () -> ()) in
  let words f =
    ignore (f ());
    minor_words_of f -. baseline
  in
  let three = V.Int 3 and half = V.Real 0.5 in
  List.iter
    (fun op ->
      List.iter
        (fun (a, b) ->
          check (Alcotest.float 0.) "eval_cmp: minor words" 0.
            (words (fun () -> T.eval_cmp op a b)))
        [ (three, half); (half, three); (three, three); (half, half) ])
    [ Ir.Eq; Ir.Ne; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge ];
  (* x < 3 && x + y >= 1, compiled: one evaluation allocates nothing,
     and neither does arithmetic on reals *)
  let guard =
    T.and_
      (T.cmp Ir.Lt (ivar "x") (T.cint 3))
      (T.cmp Ir.Ge (T.binop Ir.Add (ivar "x") (ivar "y")) (T.cint 1))
  in
  let prog =
    Solver.Compiled.compile (Solver.Hc4.layout [ ("x", ()); ("y", ()) ]) guard
  in
  Solver.Compiled.set_int prog 0 1;
  Solver.Compiled.set_int prog 1 2;
  check Alcotest.bool "guard holds" true (Solver.Compiled.holds prog);
  check (Alcotest.float 0.) "compiled guard: minor words" 0.
    (words (fun () -> Solver.Compiled.holds prog));
  let r = ivar "r" in
  let real_guard =
    T.and_
      (T.cmp Ir.Lt (T.binop Ir.Mul r (T.creal 2.5)) (T.creal 3.0))
      (T.cmp Ir.Ge
         (T.binop Ir.Min (T.binop Ir.Mod r (T.creal 0.75)) (T.unop Ir.Abs_op r))
         (T.creal (-1.0)))
  in
  let prog =
    Solver.Compiled.compile (Solver.Hc4.layout [ ("r", ()) ]) real_guard
  in
  Solver.Compiled.set_real prog 0 1.125;
  check Alcotest.bool "real guard holds" true (Solver.Compiled.holds prog);
  check (Alcotest.float 0.) "compiled real guard: minor words" 0.
    (words (fun () -> Solver.Compiled.holds prog))

(* --- the answer memo -----------------------------------------------------

   A memo only skips repeats: solving a sequence of problems through one
   memo must give the results, stats, counter deltas and RNG draws that
   solving each without one gives.  Only the HC4 counters may fall. *)

let total = Telemetry.Counter.total
let c_memo_hits = Telemetry.Counter.make "solver.memo_hits"
let c_memo_clears = Telemetry.Counter.make "solver.memo_clears"

let solver_counters =
  List.map Telemetry.Counter.make
    [
      "solver.solve_calls"; "solver.sat"; "solver.unsat"; "solver.unknown";
      "solver.nodes"; "solver.splits"; "solver.samples"; "solver.sample_errors";
    ]

let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    f

let same_answer a b =
  match a, b with
  | Csp.Sat a, Csp.Sat b -> Csp.Smap.equal same_value a b
  | Csp.Unsat, Csp.Unsat | Csp.Unknown, Csp.Unknown -> true
  | _ -> false

(* One call: its result and stats (or the exception it raised), its
   deltas of [solver_counters], and the draw its RNG would make next. *)
let observe_call ?memo rng (problem, node_budget, hc4_memo) =
  let before = List.map total solver_counters in
  let r =
    match Csp.solve ~node_budget ~hc4_memo ~rng ?memo problem with
    | res, (st : Csp.stats) ->
      Ok (res, (st.nodes, st.propagation_rounds, st.samples_tried, st.term_size))
    | exception e -> Error (Printexc.to_string e)
  in
  ( r,
    List.map2 (fun c b -> total c - b) solver_counters before,
    Random.State.bits (Random.State.copy rng) )

let same_call (r, deltas, next) (r', deltas', next') =
  (match r, r' with
   | Ok (a, s), Ok (b, t) -> same_answer a b && s = t
   | Error e, Error f -> String.equal e f
   | _ -> false)
  && deltas = deltas' && next = next'

(* The histograms every call observes, as a snapshot shows them. *)
let solver_histograms () =
  List.filter
    (fun (name, _) -> name = "solver.nodes_per_call" || name = "solver.term_size")
    (Telemetry.snapshot ()).Telemetry.sn_histograms

(* A sequence over a pool of three constraints and two variable lists,
   so that queries repeat, under budgets from 0 to 3,000 and now and
   then with the HC4 memo off. *)
let gen_sequence rng =
  let problems =
    Array.init 3 (fun _ ->
        let _, (p : Csp.problem), _, _ = gen_problem rng in
        p)
  in
  let constraints = Array.map (fun (p : Csp.problem) -> p.p_constraint) problems in
  let var_lists = [| problems.(0).p_vars; problems.(1).p_vars |] in
  let calls =
    List.init 16 (fun _ ->
        let c = constraints.(Random.State.int rng 3) in
        let vars = var_lists.(if Random.State.int rng 4 = 0 then 1 else 0) in
        let budget = [| 0; 1; 2; 40; 3000 |].(Random.State.int rng 5) in
        let hc4_memo = Random.State.int rng 4 > 0 in
        ({ Csp.p_vars = vars; p_constraint = c }, budget, hc4_memo))
  in
  (calls, Random.State.bits rng)

let print_sequence (calls, seed) =
  Fmt.str "seed=%d@.%a" seed
    Fmt.(list ~sep:cut (fun ppf ((p : Csp.problem), budget, hc4_memo) ->
      Fmt.pf ppf "budget=%d hc4=%b vars=[%a] %a" budget hc4_memo
        (list ~sep:comma (fun ppf (x, ty) -> Fmt.pf ppf "%s:%a" x V.pp_ty ty))
        p.p_vars T.pp p.p_constraint))
    calls

let prop_memo_matches_fresh hits =
  QCheck.Test.make ~name:"solve through a memo = solve without one" ~count:300
    (QCheck.make ~print:print_sequence gen_sequence)
    (fun (calls, seed) ->
      with_telemetry (fun () ->
          let run ?memo () =
            Telemetry.reset ();
            let rng = Random.State.make [| seed |] in
            let observed = List.map (observe_call ?memo rng) calls in
            (observed, solver_histograms ())
          in
          let memo = Csp.create_memo () in
          let got, got_hists = run ~memo () in
          hits := !hits + total c_memo_hits;
          let want, want_hists = run () in
          List.for_all2 same_call got want && got_hists = want_hists))

let test_memo_matches_fresh () =
  let hits = ref 0 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 30 |])
    (prop_memo_matches_fresh hits);
  check Alcotest.bool "the memo was hit" true (!hits > 0)

let x_vars = [ ("x", i_ty (-8) 8) ]

(* [|x| mod 3 = 1] fails at mid, lo, hi and zero of [-8, 8], so only a
   random pick can meet it. *)
let random_only =
  T.cmp Ir.Eq (T.binop Ir.Mod (T.unop Ir.Abs_op (ivar "x")) (T.cint 3)) (T.cint 1)

let test_memo_skips_draws () =
  with_telemetry (fun () ->
      let memo = Csp.create_memo () and rng = Random.State.make [| 5 |] in
      let call =
        ({ Csp.p_vars = x_vars; p_constraint = random_only }, 3000, true)
      in
      let before = Random.State.bits (Random.State.copy rng) in
      ignore (observe_call ~memo rng call);
      check Alcotest.bool "the first call drew" true
        (before <> Random.State.bits (Random.State.copy rng));
      let fresh_rng = Random.State.copy rng in
      let second = observe_call ~memo rng call in
      check Alcotest.int "never replayed" 0 (total c_memo_hits);
      check Alcotest.bool "solved afresh" true
        (same_call second (observe_call fresh_rng call)))

(* Refuted at the root without a sample: one node, no draw. *)
let refuted_at_root =
  T.and_ (T.cmp Ir.Gt (ivar "x") (T.cint 5)) (T.cmp Ir.Lt (ivar "x") (T.cint 3))

let test_memo_budget_rule () =
  with_telemetry (fun () ->
      let memo = Csp.create_memo () and rng = Random.State.make [| 7 |] in
      let problem = { Csp.p_vars = x_vars; p_constraint = refuted_at_root } in
      let n =
        match Csp.solve ~node_budget:3000 ~rng ~memo problem with
        | Csp.Unsat, st -> st.Csp.nodes
        | _ -> Alcotest.fail "expected unsat"
      in
      check Alcotest.bool "recorded with nodes" true (n >= 1);
      let fresh budget = observe_call (Random.State.copy rng) (problem, budget, true) in
      let replay = observe_call ~memo rng (problem, n, true) in
      check Alcotest.int "replayed under budget n" 1 (total c_memo_hits);
      check Alcotest.bool "replay = fresh" true (same_call replay (fresh n));
      let cut = observe_call ~memo rng (problem, n - 1, true) in
      check Alcotest.int "solved afresh under n - 1" 1 (total c_memo_hits);
      (match cut with
       | Ok (Csp.Unknown, _), _, _ -> ()
       | _ -> Alcotest.fail "expected unknown under n - 1");
      check Alcotest.bool "cut = fresh" true (same_call cut (fresh (n - 1))))

let test_memo_binding () =
  with_telemetry (fun () ->
      let memo = Csp.create_memo () and rng = Random.State.make [| 9 |] in
      let solve ?(hc4_memo = true) vars =
        ignore
          (Csp.solve ~hc4_memo ~rng ~memo
             { Csp.p_vars = vars; p_constraint = refuted_at_root })
      in
      solve x_vars;
      solve x_vars;
      check Alcotest.int "hit on the same list" 1 (total c_memo_hits);
      solve (List.map Fun.id x_vars);
      check Alcotest.int "an equal new list clears" 1 (total c_memo_clears);
      check Alcotest.int "and solves afresh" 1 (total c_memo_hits);
      solve ~hc4_memo:false x_vars;
      check Alcotest.int "a flipped flag clears" 2 (total c_memo_clears);
      solve ~hc4_memo:false x_vars;
      check Alcotest.int "hit under the new binding" 2 (total c_memo_hits))

let test_memo_cap () =
  with_telemetry (fun () ->
      let memo = Csp.create_memo () and rng = Random.State.make [| 11 |] in
      let vars = [ ("x", i_ty 0 10_000) ] in
      let solve k =
        match
          Csp.solve ~rng ~memo
            { Csp.p_vars = vars; p_constraint = T.cmp Ir.Eq (ivar "x") (T.cint k) }
        with
        | Csp.Sat _, _ -> ()
        | _ -> Alcotest.fail "expected sat"
      in
      for k = 0 to 4095 do solve k done;
      check Alcotest.int "4,096 answers fit" 0 (total c_memo_clears);
      solve 4096;
      check Alcotest.int "the next one clears" 1 (total c_memo_clears);
      solve 4096;
      check Alcotest.int "the newest is kept" 1 (total c_memo_hits);
      solve 0;
      check Alcotest.int "the oldest is gone" 1 (total c_memo_hits))

(* --- Interval primitives: degenerate (point) operand exactness -------- *)

module I = Solver.Interval

let npoint ?(int = true) v = { I.nlo = v; nhi = v; nint = I.int_flag int }

(* [nmod] on point operands must return the exact singleton matching
   [Value.modulo] (MATLAB sign convention), for every sign combination.
   Before the fix the generic one-sided range was returned, e.g.
   (-7) mod 3 as [0,2] instead of the point 2. *)
let test_interval_mod_points () =
  List.iter
    (fun (x, y) ->
      let n = I.nmod (npoint (float_of_int x)) (npoint (float_of_int y)) in
      let expected =
        match Slim.Value.modulo (Slim.Value.Int x) (Slim.Value.Int y) with
        | Slim.Value.Int r -> float_of_int r
        | _ -> Alcotest.fail "modulo returned non-int"
      in
      check Alcotest.(pair (float 0.0) (float 0.0))
        (Printf.sprintf "%d mod %d singleton" x y)
        (expected, expected) (n.I.nlo, n.I.nhi))
    [ (7, 3); (-7, 3); (7, -3); (-7, -3); (6, 3); (-6, 3); (0, 5); (0, -5) ]

let test_interval_mod_real_points () =
  List.iter
    (fun (x, y) ->
      let n = I.nmod (npoint ~int:false x) (npoint ~int:false y) in
      let expected =
        match Slim.Value.modulo (Slim.Value.Real x) (Slim.Value.Real y) with
        | Slim.Value.Real r -> r
        | _ -> Alcotest.fail "modulo returned non-real"
      in
      check Alcotest.(float 0.0)
        (Printf.sprintf "%g mod %g lo" x y)
        expected n.I.nlo;
      check Alcotest.(float 0.0)
        (Printf.sprintf "%g mod %g hi" x y)
        expected n.I.nhi)
    [ (7.5, 2.5); (-7.5, 2.0); (7.5, -2.0); (-0.5, -0.25) ]

(* [nabs] on a point must be the exact point, including the negative
   side (previously covered by the generic zero-straddle hull only when
   the interval was wide). *)
let test_interval_abs_points () =
  List.iter
    (fun v ->
      let n = I.nabs (npoint ~int:false v) in
      check Alcotest.(float 0.0) (Printf.sprintf "abs %g lo" v)
        (Float.abs v) n.I.nlo;
      check Alcotest.(float 0.0) (Printf.sprintf "abs %g hi" v)
        (Float.abs v) n.I.nhi)
    [ 3.5; -3.5; 0.0; -0.0; 1e-9; -1e300 ]

(* Range soundness sweep: every concrete (a mod b) must land inside
   [nmod] of the operand hulls, for divisor ranges of every sign. *)
let test_interval_mod_range_sound () =
  let hull lo hi = { I.nlo = float_of_int lo; nhi = float_of_int hi; nint = 1.0 } in
  List.iter
    (fun (alo, ahi, blo, bhi) ->
      let n = I.nmod (hull alo ahi) (hull blo bhi) in
      for a = alo to ahi do
        for b = blo to bhi do
          if b <> 0 then begin
            let r =
              match Slim.Value.modulo (Slim.Value.Int a) (Slim.Value.Int b) with
              | Slim.Value.Int r -> float_of_int r
              | _ -> Alcotest.fail "modulo returned non-int"
            in
            if not (n.I.nlo <= r && r <= n.I.nhi) then
              Alcotest.failf "%d mod %d = %g outside [%g,%g]" a b r n.I.nlo
                n.I.nhi
          end
        done
      done)
    [ (-9, 9, 1, 4); (-9, 9, -4, -1); (-9, 9, -3, 3); (0, 20, 5, 5) ]

(* --- wide ranges ---------------------------------------------------------- *)

let x_sq_is_49 = T.cmp Ir.Eq (T.binop Ir.Mul (ivar "x") (ivar "x")) (T.cint 49)

let check_root name a =
  let x = V.to_int (Csp.Smap.find "x" a) in
  check Alcotest.bool (name ^ ": x*x = 49") true (x * x = 49)

(* Random draws over int ranges of 2^30 values or more used to raise
   [Invalid_argument "Random.int"] out of [Csp.solve]; the full int
   range also read as negative width and was refuted without a split. *)
let test_wide_int_ranges () =
  List.iter
    (fun (name, lo, hi) ->
      check_root name (get_sat (solve [ ("x", i_ty lo hi) ] x_sq_is_49)))
    [
      ("int16", -32768, 32767);
      ("2^29", -(1 lsl 29), 1 lsl 29);
      ("int32", -(1 lsl 31), (1 lsl 31) - 1);
      ("full int", min_int, max_int);
    ]

(* [Value.random] stays inside its type on ranges whose width
   overflows, and draws as [Random.State.int] does below 2^30. *)
let test_value_random_in_range () =
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun ty ->
      for _ = 1 to 200 do
        let v = V.random rng ty in
        if not (V.member ty v) then
          Alcotest.failf "%a drew %a" V.pp_ty ty V.pp v
      done)
    [
      i_ty 0 99; i_ty (-(1 lsl 31)) ((1 lsl 31) - 1); i_ty min_int max_int;
      i_ty (-(1 lsl 61)) (1 lsl 61); i_ty 0 (1 lsl 40);
      r_ty (-1e308) 1e308; r_ty (-1e6) 1e6; r_ty neg_infinity infinity;
      r_ty neg_infinity 0.0; r_ty 5.0 infinity;
    ];
  let a = Random.State.make [| 3 |] and b = Random.State.make [| 3 |] in
  for _ = 1 to 100 do
    check Alcotest.int "narrow int draw unchanged"
      (-500 + Random.State.int a 1001)
      (V.to_int (V.random b (i_ty (-500) 500)))
  done

(* The real midpoint used to overflow: [-1e308, 1e308] split into
   [-1e308, inf] and the inverted [inf, 1e308]. *)
let test_real_split_no_overflow () =
  let inside (plo, phi) d =
    match d with
    | Dom.Dreal { lo; hi } -> plo <= lo && lo <= hi && hi <= phi
    | Dom.Dbool _ | Dom.Dint _ -> false
  in
  List.iter
    (fun (lo, hi) ->
      let d = Dom.realn lo hi in
      (match Dom.split d with
       | Some (l, r) ->
         check Alcotest.bool
           (Printf.sprintf "[%g,%g]: children inside" lo hi)
           true
           (inside (lo, hi) l && inside (lo, hi) r)
       | None -> Alcotest.failf "[%g,%g] must split" lo hi);
      List.iter
        (fun v ->
          check Alcotest.bool
            (Printf.sprintf "[%g,%g]: sample inside" lo hi)
            true (Dom.member d v))
        (Dom.sample d))
    [
      (-1e308, 1e308); (-.max_float, max_float); (neg_infinity, infinity);
      (neg_infinity, -1e300); (1e300, infinity); (-1.0, 3.0);
    ];
  check Alcotest.(float 0.0) "finite width keeps the formula" 1.0
    (Dom.real_mid (-1.0) 3.0)

let test_huge_real_domains () =
  let y_ty = r_ty (-1e308) 1e308 in
  let c =
    T.cmp Ir.Gt (T.binop Ir.Mul (ivar "x") (ivar "y")) (T.creal 1.0)
  in
  let a = get_sat (solve [ ("x", r_ty 0.0 5.0); ("y", y_ty) ] c) in
  let y = Csp.Smap.find "y" a in
  check Alcotest.bool "x*y > 1: y inside its range" true (V.member y_ty y);
  let c = T.cmp Ir.Eq (T.binop Ir.Mul (ivar "y") (ivar "y")) (T.creal 4.0) in
  let a = get_sat (solve [ ("y", y_ty) ] c) in
  check Alcotest.(float 0.0) "y*y = 4" 2.0
    (Float.abs (V.to_real (Csp.Smap.find "y" a)))

let () =
  Alcotest.run "solver"
    [
      ( "basic",
        [
          Alcotest.test_case "linear int" `Quick test_linear_int;
          Alcotest.test_case "equality" `Quick test_equality;
          Alcotest.test_case "unsat conflict" `Quick test_unsat_conflict;
          Alcotest.test_case "unsat domain" `Quick test_unsat_out_of_domain;
          Alcotest.test_case "disjunction" `Quick test_disjunction;
          Alcotest.test_case "bool vars" `Quick test_bool_vars;
          Alcotest.test_case "two-var relation" `Quick test_two_vars_relation;
          Alcotest.test_case "real band" `Quick test_real_band;
          Alcotest.test_case "constant fold" `Quick test_constant_fold;
          Alcotest.test_case "self comparison folds" `Quick test_self_comparison;
          Alcotest.test_case "self comparison: LANSwitch shape" `Quick
            test_self_comparison_lanswitch;
        ] );
      ( "operators",
        [
          Alcotest.test_case "ite" `Quick test_ite_term;
          Alcotest.test_case "abs/min/max" `Quick test_abs_min_max;
          Alcotest.test_case "mod via sampling" `Quick test_mod_via_sampling;
          Alcotest.test_case "array ite chain" `Quick test_array_fold_via_ite_chain;
        ] );
      ( "budget",
        [
          Alcotest.test_case "hard real unknown" `Quick test_unknown_on_hard_real;
          Alcotest.test_case "budget unknown" `Quick test_budget_exhaustion_returns_unknown;
        ] );
      ( "hc4 projections",
        [
          Alcotest.test_case "div overflow regression" `Quick
            test_div_overflow_regression;
          Alcotest.test_case "Dom.meet saturates huge bounds" `Quick
            test_dom_meet_saturates;
          Alcotest.test_case "bwd_num keeps int bounds past 1e9" `Quick
            test_bwd_num_large_int_bounds;
          Alcotest.test_case "mod: positive divisor range" `Quick
            test_mod_positive_divisor_range;
          Alcotest.test_case "mod: negative divisor range" `Quick
            test_mod_negative_divisor_range;
          Alcotest.test_case "mod: zero-crossing divisor" `Quick
            test_mod_zero_crossing_divisor;
          Alcotest.test_case "mod: backward pins divisor" `Quick
            test_mod_backward_pins_divisor;
          Alcotest.test_case "abs: sign-aware backward" `Quick
            test_abs_backward_sign;
        ] );
      ( "interval points",
        [
          Alcotest.test_case "mod: int point exact" `Quick
            test_interval_mod_points;
          Alcotest.test_case "mod: real point exact" `Quick
            test_interval_mod_real_points;
          Alcotest.test_case "abs: point exact" `Quick
            test_interval_abs_points;
          Alcotest.test_case "mod: range soundness sweep" `Quick
            test_interval_mod_range_sound;
        ] );
      ( "wide ranges",
        [
          Alcotest.test_case "int ranges of 2^30 and more" `Quick
            test_wide_int_ranges;
          Alcotest.test_case "Value.random in range" `Quick
            test_value_random_in_range;
          Alcotest.test_case "real split without overflow" `Quick
            test_real_split_no_overflow;
          Alcotest.test_case "huge real domains" `Quick test_huge_real_domains;
        ] );
      ("props", List.map QCheck_alcotest.to_alcotest [ prop_solver_sound ]);
      ( "sampler",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 25 |])
            prop_sampler_matches_reference;
          Alcotest.test_case "eval allocation" `Quick test_eval_allocation;
          Alcotest.test_case "compiled = tree walk" `Quick
            test_compiled_matches_reference;
          Alcotest.test_case "compiled operand order" `Quick
            test_compiled_operand_order;
        ] );
      ( "answer memo",
        [
          Alcotest.test_case "memo = fresh (random sequences)" `Quick
            test_memo_matches_fresh;
          Alcotest.test_case "a call that drew is not replayed" `Quick
            test_memo_skips_draws;
          Alcotest.test_case "budget rule" `Quick test_memo_budget_rule;
          Alcotest.test_case "new list or flag clears" `Quick test_memo_binding;
          Alcotest.test_case "cleared at the cap" `Quick test_memo_cap;
        ] );
    ]
