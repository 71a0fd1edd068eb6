(* Tests for the robustness monitor (lib/spec) that the fuzz [spec]
   oracle checks: directed robustness cases against hand-computed
   values, and a 500+-trace differential between the sliding-window
   monitor and the naive reference (bit-for-bit at every step, plus
   robustness-sign vs boolean-satisfaction agreement). *)

module Stl = Spec.Stl
module Monitor = Spec.Monitor

let check = Alcotest.check
let exact = Alcotest.float 0.0

let trace cols = Monitor.of_columns cols
let x arr = trace [ ("x", arr) ]
let atom cmp l r = Stl.Atom (cmp, l, r)
let sx = Stl.Sig "x"
let c v = Stl.Const v

let rob ?at t f =
  let fast = Monitor.robustness ?at t f in
  let slow = Monitor.robustness_naive ?at t f in
  check exact "fast = naive" slow fast;
  fast

(* --- directed robustness ------------------------------------------------ *)

let test_atoms () =
  let t = x [| 3.0; 7.0 |] in
  check exact "le at 0" 2.0 (rob t (atom Le sx (c 5.0)));
  check exact "le at 1" (-2.0) (rob ~at:1 t (atom Le sx (c 5.0)));
  check exact "ge at 0" (-2.0) (rob t (atom Ge sx (c 5.0)));
  check exact "eq at 0" (-2.0) (rob t (atom Eq sx (c 5.0)));
  check exact "eq never positive" 0.0 (rob t (atom Eq sx (c 3.0)));
  check exact "arith" 9.0
    (rob t
       (atom Le
          (Stl.Sub (sx, Stl.Abs (Stl.Neg (c 2.0))))
          (Stl.Add (Stl.Mul (sx, c 2.0), Stl.Min (c 8.0, Stl.Max (sx, c 4.0))))));
  check Alcotest.bool "sat le" true (Monitor.sat t (atom Le sx (c 5.0)));
  check Alcotest.bool "sat lt strict" false (Monitor.sat t (atom Lt sx (c 3.0)))

let test_connectives () =
  let t = x [| 2.0 |] in
  let ge1 = atom Ge sx (c 1.0) in
  let le0 = atom Le sx (c 0.0) in
  check exact "not" (-1.0) (rob t (Stl.Not ge1));
  check exact "and" (-2.0) (rob t (Stl.And (ge1, le0)));
  check exact "or" 1.0 (rob t (Stl.Or (ge1, le0)));
  check exact "implies" (-1.0) (rob t (Stl.Implies (ge1, le0)))

let test_always () =
  let t = x [| 1.0; 2.0; 6.0; 3.0 |] in
  let f = Stl.Always (0, 2, atom Le sx (c 5.0)) in
  check exact "t0" (-1.0) (rob t f);
  check exact "t1" (-1.0) (rob ~at:1 t f);
  check exact "t2 clamped" (-1.0) (rob ~at:2 t f);
  check exact "t3 clamped" 2.0 (rob ~at:3 t f)

let test_eventually () =
  let t = x [| 0.0; 1.0; 5.0; 0.0 |] in
  let f = Stl.Eventually (1, 2, atom Ge sx (c 4.0)) in
  check exact "t0" 1.0 (rob t f);
  check exact "t1" 1.0 (rob ~at:1 t f);
  check exact "t2 clamped" (-4.0) (rob ~at:2 t f);
  check exact "t3 clamped" (-4.0) (rob ~at:3 t f)

let test_until () =
  let t =
    trace [ ("x", [| 1.0; 2.0; 20.0; 2.0 |]); ("y", [| 0.0; 5.0; 0.0; 9.0 |]) ]
  in
  let f = Stl.Until (0, 3, atom Le sx (c 10.0), atom Ge (Stl.Sig "y") (c 3.0)) in
  check exact "t0" 2.0 (rob t f);
  check exact "t1" 2.0 (rob ~at:1 t f);
  check exact "t2" (-10.0) (rob ~at:2 t f);
  check exact "t3" 6.0 (rob ~at:3 t f)

let test_structure () =
  let a = atom Le sx (c 0.0) in
  check Alcotest.int "atom horizon" 0 (Stl.horizon a);
  check Alcotest.int "always horizon" 2 (Stl.horizon (Stl.Always (0, 2, a)));
  check Alcotest.int "nested horizon" 6
    (Stl.horizon (Stl.Always (0, 2, Stl.Eventually (1, 4, a))));
  check Alcotest.int "until horizon" 3
    (Stl.horizon (Stl.Until (1, 3, a, a)));
  check
    Alcotest.(list string)
    "signals sorted uniq" [ "x"; "y" ]
    (Stl.signals (Stl.And (atom Le (Stl.Sig "y") sx, atom Ge sx (c 0.0))));
  let outputs = [ ("x", Slim.Value.Treal { lo = 0.0; hi = 1.0 }) ] in
  check Alcotest.bool "validate ok" true
    (Stl.validate ~outputs a = Ok ());
  check Alcotest.bool "validate unknown sig" true
    (Result.is_error (Stl.validate ~outputs (atom Le (Stl.Sig "nope") (c 0.0))));
  check Alcotest.bool "validate bad bounds" true
    (Result.is_error (Stl.validate ~outputs (Stl.Always (2, 1, a))))

(* --- monitor differential ----------------------------------------------- *)

let gen_sig rng names depth =
  let rec go depth =
    if depth = 0 || Util.Splitmix.int rng 3 = 0 then
      if Util.Splitmix.int rng 2 = 0 then
        Stl.Sig (List.nth names (Util.Splitmix.int rng (List.length names)))
      else Stl.Const (float_of_int (Util.Splitmix.int rng 101 - 50))
    else
      match Util.Splitmix.int rng 7 with
      | 0 -> Stl.Add (go (depth - 1), go (depth - 1))
      | 1 -> Stl.Sub (go (depth - 1), go (depth - 1))
      | 2 -> Stl.Mul (go (depth - 1), go (depth - 1))
      | 3 -> Stl.Neg (go (depth - 1))
      | 4 -> Stl.Abs (go (depth - 1))
      | 5 -> Stl.Min (go (depth - 1), go (depth - 1))
      | _ -> Stl.Max (go (depth - 1), go (depth - 1))
  in
  go depth

let gen_formula rng names depth =
  let gen_bounds () =
    let a = Util.Splitmix.int rng 7 in
    (a, a + Util.Splitmix.int rng 9)
  in
  let gen_atom () =
    let cmp =
      match Util.Splitmix.int rng 5 with
      | 0 -> Stl.Le
      | 1 -> Stl.Lt
      | 2 -> Stl.Ge
      | 3 -> Stl.Gt
      | _ -> Stl.Eq
    in
    Stl.Atom (cmp, gen_sig rng names 2, gen_sig rng names 2)
  in
  let rec go depth =
    if depth = 0 then gen_atom ()
    else
      match Util.Splitmix.int rng 8 with
      | 0 -> gen_atom ()
      | 1 -> Stl.Not (go (depth - 1))
      | 2 -> Stl.And (go (depth - 1), go (depth - 1))
      | 3 -> Stl.Or (go (depth - 1), go (depth - 1))
      | 4 -> Stl.Implies (go (depth - 1), go (depth - 1))
      | 5 ->
        let a, b = gen_bounds () in
        Stl.Always (a, b, go (depth - 1))
      | 6 ->
        let a, b = gen_bounds () in
        Stl.Eventually (a, b, go (depth - 1))
      | _ ->
        let a, b = gen_bounds () in
        Stl.Until (a, b, go (depth - 1), go (depth - 1))
  in
  go depth

(* 520 random traces x 3 random formulas: the production monitor and
   the naive reference must agree bit-for-bit at every step, and any
   nonzero finite robustness must decide the independent boolean
   semantics. *)
let test_monitor_differential () =
  let rng = Util.Splitmix.create 0xD1FF in
  for case = 1 to 520 do
    let n = 1 + Util.Splitmix.int rng 50 in
    let names =
      List.filteri
        (fun i _ -> i <= Util.Splitmix.int rng 3)
        [ "a"; "b"; "c" ]
    in
    let cols =
      List.map
        (fun name ->
          ( name,
            Array.init n (fun _ ->
                if Util.Splitmix.int rng 2 = 0 then
                  float_of_int (Util.Splitmix.int rng 41 - 20)
                else Util.Splitmix.float_in rng (-100.0) 100.0) ))
        names
    in
    let t = trace cols in
    for k = 1 to 3 do
      let f = gen_formula rng names 3 in
      let fast = Monitor.robustness_signal t f in
      for at = 0 to n - 1 do
        let slow = Monitor.robustness_naive ~at t f in
        if Int64.bits_of_float fast.(at) <> Int64.bits_of_float slow then
          Alcotest.failf
            "case %d formula %d step %d: deque %h <> naive %h on %s" case k
            at fast.(at) slow (Stl.to_string f);
        if fast.(at) <> 0.0 && Float.is_finite fast.(at) then
          if Monitor.sat ~at t f <> (fast.(at) > 0.0) then
            Alcotest.failf
              "case %d formula %d step %d: sign %h disagrees with sat on %s"
              case k at fast.(at) (Stl.to_string f)
      done
    done
  done

let () =
  Alcotest.run "spec"
    [
      ( "robustness",
        [
          Alcotest.test_case "atoms" `Quick test_atoms;
          Alcotest.test_case "connectives" `Quick test_connectives;
          Alcotest.test_case "always" `Quick test_always;
          Alcotest.test_case "eventually" `Quick test_eventually;
          Alcotest.test_case "until" `Quick test_until;
          Alcotest.test_case "structure" `Quick test_structure;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "deque vs naive differential" `Quick
            test_monitor_differential;
        ] );
    ]
