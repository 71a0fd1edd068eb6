(* Unit and property tests for the SLIM substrate: values, IR, branches,
   interpreter, block diagrams and the diagram compiler. *)

module V = Slim.Value
module Ir = Slim.Ir
module B = Slim.Builder
module Exec = Slim.Exec
module Branch = Slim.Branch

let check = Alcotest.check
let vi i = V.Int i
let vr r = V.Real r
let vb b = V.Bool b

let value_testable = Alcotest.testable V.pp V.equal

(* --- Value ------------------------------------------------------------ *)

let test_value_arith () =
  check value_testable "int add" (vi 5) (V.add (vi 2) (vi 3));
  check value_testable "mixed add promotes" (vr 5.5) (V.add (vi 2) (vr 3.5));
  check value_testable "bool in arith is 0/1" (vr 1.0) (V.add (vb true) (vr 0.0));
  check value_testable "int div truncates" (vi (-2)) (V.div (vi (-5)) (vi 2));
  check value_testable "mod sign follows divisor" (vi 2) (V.modulo (vi (-3)) (vi 5));
  check value_testable "real mod" (vr 1.5) (V.modulo (vr 7.5) (vr 2.0));
  check value_testable "min mixed" (vr 2.0) (V.min_v (vi 2) (vr 3.0));
  check value_testable "abs" (vi 4) (V.abs_v (vi (-4)));
  check value_testable "clamp int" (vi 3) (V.clamp ~lo:0.0 ~hi:3.0 (vi 7))

let test_value_errors () =
  Alcotest.check_raises "div by zero" (V.Type_error "div: integer division by zero")
    (fun () -> ignore (V.div (vi 1) (vi 0)));
  Alcotest.check_raises "neg bool" (V.Type_error "neg: bool operand")
    (fun () -> ignore (V.neg (vb true)))

let test_value_string_roundtrip () =
  let cases =
    [ (V.Tbool, vb true);
      (V.tint, vi (-42));
      (V.treal, vr 3.25);
      (V.Tvec (V.tint, 3), V.Vec [| vi 1; vi 2; vi 3 |]);
      (V.Tvec (V.Tvec (V.tint, 2), 2),
       V.Vec [| V.Vec [| vi 1; vi 2 |]; V.Vec [| vi 3; vi 4 |] |]) ]
  in
  List.iter
    (fun (ty, v) ->
      check value_testable "roundtrip" v (V.of_string ty (V.to_string v)))
    cases

let prop_random_member =
  QCheck.Test.make ~name:"random value lies in its type" ~count:200
    QCheck.(triple small_signed_int small_nat bool)
    (fun (lo, span, use_vec) ->
      let ty0 = V.tint_range lo (lo + span) in
      let ty = if use_vec then V.Tvec (ty0, 3) else ty0 in
      let rng = Random.State.make [| lo; span |] in
      V.member ty (V.random rng ty))

let prop_copy_independent =
  QCheck.Test.make ~name:"copy of vector is independent" ~count:100
    QCheck.(small_nat)
    (fun n ->
      let n = max 1 (n mod 5) in
      let v = V.Vec (Array.init n (fun i -> vi i)) in
      let c = V.copy v in
      (match c with V.Vec a -> a.(0) <- vi 999 | _ -> ());
      match v with V.Vec a -> V.equal a.(0) (vi 0) | _ -> false)

(* The arithmetic as it was before it was written out per operand shape:
   one [arith] combinator over [to_real].  Kept as the reference for the
   bit-for-bit property below. *)
module Ref_arith = struct
  open V

  let arith name fi fr a b =
    match a, b with
    | Int x, Int y -> Int (fi x y)
    | (Int _ | Real _ | Bool _), (Int _ | Real _ | Bool _) ->
      Real (fr (to_real a) (to_real b))
    | Vec _, _ | _, Vec _ -> type_error "%s: vector operand" name

  let add = arith "add" ( + ) ( +. )
  let sub = arith "sub" ( - ) ( -. )
  let mul = arith "mul" ( * ) ( *. )

  let div a b =
    match a, b with
    | Int _, Int 0 -> type_error "div: integer division by zero"
    | Int x, Int y -> Int (x / y)
    | (Int _ | Real _ | Bool _), (Int _ | Real _ | Bool _) ->
      let d = to_real b in
      if d = 0.0 then type_error "div: real division by zero"
      else Real (to_real a /. d)
    | Vec _, _ | _, Vec _ -> type_error "div: vector operand"

  let modulo a b =
    match a, b with
    | Int _, Int 0 -> type_error "mod: modulo by zero"
    | Int x, Int y ->
      let r = x mod y in
      Int (if (r < 0 && y > 0) || (r > 0 && y < 0) then r + y else r)
    | (Int _ | Real _ | Bool _), (Int _ | Real _ | Bool _) ->
      let x = to_real a and y = to_real b in
      if y = 0.0 then type_error "mod: modulo by zero"
      else
        let r = Float.rem x y in
        Real (if (r < 0.0 && y > 0.0) || (r > 0.0 && y < 0.0) then r +. y else r)
    | Vec _, _ | _, Vec _ -> type_error "mod: vector operand"

  let min_v = arith "min" Stdlib.min Float.min
  let max_v = arith "max" Stdlib.max Float.max

  let neg = function
    | Int x -> Int (-x)
    | Real r -> Real (-.r)
    | Bool _ -> type_error "neg: bool operand"
    | Vec _ -> type_error "neg: vector operand"

  let abs_v = function
    | Int x -> Int (abs x)
    | Real r -> Real (Float.abs r)
    | Bool _ -> type_error "abs: bool operand"
    | Vec _ -> type_error "abs: vector operand"

  let compare_num a b =
    match a, b with
    | Int x, Int y -> Int.compare x y
    | (Int _ | Real _ | Bool _), (Int _ | Real _ | Bool _) ->
      Float.compare (to_real a) (to_real b)
    | Vec _, _ | _, Vec _ -> type_error "compare_num: vector"
end

(* Same constructor and the same bits: [Real nan] matches only a nan
   with the same payload, and [0.] does not match [-0.]. *)
let rec same_bits a b =
  match a, b with
  | V.Bool x, V.Bool y -> x = y
  | V.Int x, V.Int y -> x = y
  | V.Real x, V.Real y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | V.Vec x, V.Vec y ->
    Array.length x = Array.length y && Array.for_all2 same_bits x y
  | (V.Bool _ | V.Int _ | V.Real _ | V.Vec _), _ -> false

let outcome f = match f () with v -> Ok v | exception V.Type_error m -> Error m

let same_outcome eq a b =
  match a, b with
  | Ok x, Ok y -> eq x y
  | Error m, Error n -> m = n
  | Ok _, Error _ | Error _, Ok _ -> false

let edge_ints =
  [ 0; 1; -1; 2; -3; 7; -255; -256; -257; 1022; 1023; 1024; 1025; max_int;
    min_int; max_int - 1; min_int + 1 ]

let edge_reals =
  [ 0.0; -0.0; 1.0; -1.0; 0.5; -2.5; 3.0; Float.nan; -.Float.nan;
    Float.infinity; Float.neg_infinity; 1e308; -1e308; 1023.0; -256.0;
    Float.of_int max_int; Float.of_int min_int; 5e-324 ]

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> V.Int i) (oneofl edge_ints));
        (3, map (fun r -> V.Real r) (oneofl edge_reals));
        (3, map (fun i -> V.Int i) (int_range (-2000) 2000));
        (2, map (fun r -> V.Real r) (float_range (-1e3) 1e3));
        (1, map (fun b -> V.Bool b) bool);
        (1, return (V.Vec [| V.Int 1 |]));
      ])

let arb_pair = QCheck.make ~print:(fun (a, b) -> V.to_string a ^ ", " ^ V.to_string b)
    (QCheck.Gen.pair gen_value gen_value)

let prop_ops_match_reference =
  QCheck.Test.make ~name:"ops agree with the arith reference bit for bit"
    ~count:3000 arb_pair (fun (a, b) ->
      let binops =
        [
          ("add", V.add, Ref_arith.add); ("sub", V.sub, Ref_arith.sub);
          ("mul", V.mul, Ref_arith.mul); ("div", V.div, Ref_arith.div);
          ("mod", V.modulo, Ref_arith.modulo); ("min", V.min_v, Ref_arith.min_v);
          ("max", V.max_v, Ref_arith.max_v);
        ]
      and unops = [ ("neg", V.neg, Ref_arith.neg); ("abs", V.abs_v, Ref_arith.abs_v) ] in
      List.iter
        (fun (name, f, g) ->
          if not (same_outcome same_bits (outcome (fun () -> f a b))
                    (outcome (fun () -> g a b)))
          then QCheck.Test.fail_reportf "%s differs" name)
        binops;
      List.iter
        (fun (name, f, g) ->
          if not (same_outcome same_bits (outcome (fun () -> f a)) (outcome (fun () -> g a)))
          then QCheck.Test.fail_reportf "%s differs" name)
        unops;
      same_outcome ( = ) (outcome (fun () -> V.compare_num a b))
        (outcome (fun () -> Ref_arith.compare_num a b))
      || QCheck.Test.fail_reportf "compare_num differs")

let test_small_int_table () =
  List.iter
    (fun n ->
      let name = string_of_int n in
      check Alcotest.bool (name ^ ": int n equals Int n") true (V.equal (V.int n) (V.Int n));
      check Alcotest.bool (name ^ ": same bits") true (same_bits (V.int n) (V.Int n)))
    [ -257; -256; -255; 0; 1022; 1023; 1024; max_int; min_int ];
  check Alcotest.bool "shared inside the table" true (V.int 1023 == V.int 1023);
  check Alcotest.bool "shared at the low edge" true (V.int (-256) == V.int (-256))

(* --- IR --------------------------------------------------------------- *)

let test_atoms () =
  let open Ir in
  let a = iv "a" >: ci 0 in
  let b = iv "b" <: ci 5 in
  let c = iv "c" =: ci 1 in
  let guard = (a &&: not_ b) ||: c in
  let atoms = atoms_of_condition guard in
  check Alcotest.int "three atoms" 3 (List.length atoms)

let test_type_check_ok () =
  let open Ir in
  let prog =
    {
      name = "tc";
      inputs = [ input "x" V.tint ];
      outputs = [ output "y" V.tint ];
      states = [ state "acc" V.tint (V.Int 0) ];
      locals = [ local "t" V.tint ];
      body =
        [
          assign "t" (iv "x" +: sv "acc");
          if_ (lv "t" >: ci 10)
            [ assign_state "acc" (ci 0) ]
            [ assign_state "acc" (lv "t") ];
          assign_out "y" (lv "t");
        ];
    }
  in
  type_check prog

let test_type_check_fails () =
  let open Ir in
  let bad_guard =
    {
      name = "bad";
      inputs = [ input "x" V.tint ];
      outputs = [];
      states = [];
      locals = [];
      body = [ if_ (iv "x") [] [] ];
    }
  in
  (try
     type_check bad_guard;
     Alcotest.fail "expected Ill_typed"
   with Ir.Ill_typed _ -> ());
  let unbound =
    { name = "unbound"; inputs = []; outputs = []; states = []; locals = [];
      body = [ Ir.assign "nope" (Ir.ci 1) ] }
  in
  (try
     type_check unbound;
     Alcotest.fail "expected Ill_typed"
   with Ir.Ill_typed _ -> ())

let test_renumber () =
  let open Ir in
  let prog =
    {
      name = "rn";
      inputs = [ input "x" V.tint ];
      outputs = [];
      states = [];
      locals = [];
      body =
        [
          if_ (iv "x" >: ci 0)
            [ if_ (iv "x" >: ci 5) [] [] ]
            [ switch (iv "x") [ (1, []); (2, []) ] [] ];
        ];
    }
  in
  let prog = renumber_decisions prog in
  let ex = Exec.handle prog in
  let ids = List.init (Exec.n_decisions ex) (Exec.decision_id ex) in
  check Alcotest.(list int) "dense ids" [ 0; 1; 2 ] ids

(* --- Branch ----------------------------------------------------------- *)

let test_branches () =
  let open Ir in
  let prog =
    renumber_decisions
      {
        name = "br";
        inputs = [ input "x" V.tint ];
        outputs = [];
        states = [];
        locals = [];
        body =
          [
            if_ (iv "x" >: ci 0)
              [ if_ (iv "x" >: ci 5) [] [] ]
              [ switch (iv "x") [ (1, []); (2, []) ] [] ];
          ];
      }
  in
  let bs = Exec.branches (Exec.handle prog) in
  (* if: 2 branches, inner if: 2, switch: 2 cases + default = 3 -> 7 *)
  check Alcotest.int "branch count" 7 (List.length bs);
  let depth_of key =
    (List.find (fun (b : Branch.t) -> Branch.equal_key b.key key) bs).depth
  in
  check Alcotest.int "top then depth" 0 (depth_of (0, Branch.Then));
  check Alcotest.int "inner depth" 1 (depth_of (1, Branch.Then));
  check Alcotest.int "case depth" 1 (depth_of (2, Branch.Case 1));
  let sorted = Branch.sort_by_depth bs in
  (match sorted with
   | first :: _ -> check Alcotest.int "sorted starts shallow" 0 first.depth
   | [] -> Alcotest.fail "no branches");
  let parent_of key =
    (List.find (fun (b : Branch.t) -> Branch.equal_key b.key key) bs).parent
  in
  (match parent_of (1, Branch.Then) with
   | Some k -> check Alcotest.bool "parent is top-then" true (Branch.equal_key k (0, Branch.Then))
   | None -> Alcotest.fail "inner branch has no parent")

(* --- Exec ------------------------------------------------------------- *)

let init prog = Exec.initial_state (Exec.handle prog)

(* One step through [prog]'s handle, inputs by name; the outputs come
   back with the handle, for [out_value] to look them up by name. *)
let run_step ?on_event prog st ins =
  let ex = Exec.handle prog in
  let out, st' = Exec.run_step ?on_event ex st (Exec.inputs_of_list ex ins) in
  ((ex, out), st')

let out_value (ex, out) name = Exec.find_output ex out name
let state_value prog st name = Exec.find_state (Exec.handle prog) st name

let accumulator_prog =
  let open Ir in
  renumber_decisions
    {
      name = "acc";
      inputs = [ input "x" V.tint ];
      outputs = [ output "y" V.tint ];
      states = [ state "acc" V.tint (V.Int 0) ];
      locals = [];
      body =
        [
          if_ (iv "x" >: ci 0)
            [ assign_state "acc" (sv "acc" +: iv "x") ]
            [];
          assign_out "y" (sv "acc");
        ];
    }

let test_interp_state_threading () =
  let st0 = init accumulator_prog in
  let run st x = run_step accumulator_prog st [ ("x", vi x) ] in
  let out1, st1 = run st0 5 in
  let out2, st2 = run st1 7 in
  let out3, _ = run st2 (-1) in
  check value_testable "first step output" (vi 5) (out_value out1 "y");
  check value_testable "second accumulates" (vi 12) (out_value out2 "y");
  check value_testable "negative ignored" (vi 12) (out_value out3 "y");
  (* snapshots immutable: st1 unchanged by later runs *)
  check value_testable "snapshot immutable" (vi 5) (state_value accumulator_prog st1 "acc")

let test_interp_events () =
  let st0 = init accumulator_prog in
  let events = ref [] in
  let on_event e = events := e :: !events in
  ignore (run_step ~on_event accumulator_prog st0 [ ("x", vi 3) ]);
  let branch_hits =
    List.filter_map
      (function Exec.Branch_hit k -> Some k | _ -> None)
      !events
  in
  check Alcotest.int "one branch hit" 1 (List.length branch_hits);
  let vectors =
    List.filter_map
      (function
        | Exec.Cond_vector { vector; outcome; _ } -> Some (vector, outcome)
        | _ -> None)
      !events
  in
  (match vectors with
   | [ (v, o) ] ->
     check Alcotest.int "single atom" 1 (Array.length v);
     check Alcotest.bool "outcome true" true o
   | _ -> Alcotest.fail "expected one condition vector")

let test_interp_vector_state () =
  let open Ir in
  let prog =
    renumber_decisions
      {
        name = "vec";
        inputs = [ input "i" (V.tint_range 0 3); input "v" V.tint ];
        outputs = [ output "o" V.tint ];
        states =
          [ state "buf" (V.Tvec (V.tint, 4)) (V.Vec (Array.make 4 (V.Int 0))) ];
        locals = [];
        body =
          [
            assign_state_idx "buf" (iv "i") (iv "v");
            assign_out "o" (index (sv "buf") (iv "i"));
          ];
      }
  in
  let st0 = init prog in
  let out, st1 = run_step prog st0 [ ("i", vi 2); ("v", vi 99) ] in
  check value_testable "written cell read back" (vi 99) (out_value out "o");
  (match state_value prog st1 "buf" with
   | V.Vec a -> check value_testable "cell 2 set" (vi 99) a.(2)
   | _ -> Alcotest.fail "buf not a vector");
  (* st0 must not alias the new snapshot *)
  (match state_value prog st0 "buf" with
   | V.Vec a -> check value_testable "original untouched" (vi 0) a.(2)
   | _ -> Alcotest.fail "buf not a vector")

(* --- Builder + Compile ------------------------------------------------ *)

let thermostat_model () =
  let b = B.create "thermostat" in
  let temp = B.inport b "temp" (V.treal_range (-40.0) 120.0) in
  let setpoint = B.const_r b 20.0 in
  let err = B.diff b setpoint temp in
  let too_cold = B.compare_const b Ir.Gt 1.0 err in
  B.outport b "heat_on" too_cold;
  let heat_level = B.saturation b ~lower:0.0 ~upper:10.0 err in
  B.outport b "heat_level" heat_level;
  B.finish b

let test_compile_thermostat () =
  let m = thermostat_model () in
  let prog = Slim.Compile.to_program m in
  let st0 = init prog in
  let run t =
    fst (run_step prog st0 [ ("temp", vr t) ])
  in
  let cold = run 5.0 in
  check value_testable "cold -> heat on" (vb true)
    (out_value cold "heat_on");
  check value_testable "cold -> level saturated" (vr 10.0)
    (out_value cold "heat_level");
  let warm = run 25.0 in
  check value_testable "warm -> heat off" (vb false)
    (out_value warm "heat_on");
  check value_testable "warm -> level clamped" (vr 0.0)
    (out_value warm "heat_level")

let test_compile_delay_counter () =
  let b = B.create "dc" in
  let x = B.inport b "x" V.tint in
  let d = B.unit_delay b (V.Int 0) x in
  B.outport b "delayed" d;
  let c = B.counter b ~modulo:3 () in
  B.outport b "count" c;
  let m = B.finish b in
  let prog = Slim.Compile.to_program m in
  let st = ref (init prog) in
  let outs = ref [] in
  for i = 1 to 5 do
    let out, st' = run_step prog !st [ ("x", vi (10 * i)) ] in
    st := st';
    outs :=
      (out_value out "delayed", out_value out "count") :: !outs
  done;
  let outs = List.rev !outs in
  let delayed = List.map fst outs and counts = List.map snd outs in
  check (Alcotest.list value_testable) "unit delay lags one step"
    [ vi 0; vi 10; vi 20; vi 30; vi 40 ] delayed;
  check (Alcotest.list value_testable) "counter wraps mod 3"
    [ vi 0; vi 1; vi 2; vi 0; vi 1 ] counts

let test_compile_switch_decision () =
  let b = B.create "sw" in
  let x = B.inport b "x" V.treal in
  let hi = B.const_r b 100.0 in
  let lo = B.const_r b (-100.0) in
  let y = B.switch b ~data1:hi ~control:x ~data2:lo () in
  B.outport b "y" y;
  let prog = Slim.Compile.to_program (B.finish b) in
  check Alcotest.int "switch compiles to one decision" 1
    (Exec.n_decisions (Exec.handle prog));
  let st0 = init prog in
  let run v =
    out_value (fst (run_step prog st0 [ ("x", vr v) ])) "y"
  in
  check value_testable "positive control" (vr 100.0) (run 1.0);
  check value_testable "zero takes else" (vr (-100.0)) (run 0.0)

let test_compile_multiport () =
  let b = B.create "mp" in
  let sel = B.inport b "sel" (V.tint_range 0 5) in
  let a = B.const_i b 10 in
  let c = B.const_i b 20 in
  let d = B.const_i b 30 in
  let y = B.multiport b ~selector:sel [ (1, a); (2, c) ] ~default:d in
  B.outport b "y" y;
  let prog = Slim.Compile.to_program (B.finish b) in
  let st0 = init prog in
  let run v =
    out_value (fst (run_step prog st0 [ ("sel", vi v) ])) "y"
  in
  check value_testable "case 1" (vi 10) (run 1);
  check value_testable "case 2" (vi 20) (run 2);
  check value_testable "default" (vi 30) (run 4)

let test_compile_data_store () =
  let b = B.create "ds" in
  B.data_store b "total" V.tint (V.Int 0);
  let x = B.inport b "x" V.tint in
  let cur = B.ds_read b "total" in
  let next = B.sum b [ cur; x ] in
  B.ds_write b "total" next;
  B.outport b "y" cur;
  let prog = Slim.Compile.to_program (B.finish b) in
  let st = init prog in
  let out1, st1 = run_step prog st [ ("x", vi 4) ] in
  let out2, _ = run_step prog st1 [ ("x", vi 2) ] in
  check value_testable "reads start-of-step value" (vi 0)
    (out_value out1 "y");
  check value_testable "write committed at end of step" (vi 4)
    (out_value out2 "y")

let sub_double () =
  let b = B.create "double" in
  let u = B.inport b "u" V.tint in
  let y = B.gain b 2.0 u in
  B.outport b "y" y;
  B.finish b

let sub_negate () =
  let b = B.create "negate" in
  let u = B.inport b "u" V.tint in
  let y = B.gain b (-1.0) u in
  B.outport b "y" y;
  B.finish b

let test_compile_if_else_subsystem () =
  let b = B.create "cond" in
  let x = B.inport b "x" V.tint in
  let pos = B.compare_const b Ir.Ge 0.0 x in
  let outs =
    B.if_else b ~then_sys:(sub_double ()) ~else_sys:(sub_negate ()) ~cond:pos
      [ x ]
  in
  (match outs with
   | [ y ] -> B.outport b "y" y
   | _ -> Alcotest.fail "expected one output");
  let prog = Slim.Compile.to_program (B.finish b) in
  let st0 = init prog in
  let run v =
    out_value (fst (run_step prog st0 [ ("x", vi v) ])) "y"
  in
  check value_testable "then arm doubles" (vi 6) (run 3);
  check value_testable "else arm negates" (vi 5) (run (-5))

let test_compile_enabled_held () =
  (* Inner counter only advances while enabled; held output freezes. *)
  let sub =
    let b = B.create "tick" in
    let u = B.inport b "u" V.tint in
    let c = B.counter b ~modulo:100 () in
    let s = B.sum b [ c; u ] in
    B.outport b "y" s;
    B.finish b
  in
  let b = B.create "en" in
  let enable = B.inport b "enable" V.Tbool in
  let u = B.inport b "u" V.tint in
  let outs = B.enabled b ~held:true sub ~enable [ u ] in
  (match outs with
   | [ y ] -> B.outport b "y" y
   | _ -> Alcotest.fail "expected one output");
  let prog = Slim.Compile.to_program (B.finish b) in
  let st = ref (init prog) in
  let run en =
    let out, st' = run_step prog !st [ ("enable", vb en); ("u", vi 0) ] in
    st := st';
    out_value out "y"
  in
  check value_testable "enabled step 1" (vi 0) (run true);
  check value_testable "enabled step 2" (vi 1) (run true);
  check value_testable "disabled holds" (vi 1) (run false);
  check value_testable "still held" (vi 1) (run false);
  check value_testable "resumes from frozen counter" (vi 2) (run true)

let test_validate_catches_unconnected () =
  let blocks =
    [|
      { Slim.Model.id = 0; bname = "gain"; kind = Slim.Model.Gain 2.0;
        srcs = [| None |] };
    |]
  in
  let m = { Slim.Model.m_name = "bad"; blocks; stores = [] } in
  match Slim.Model.validate m with
  | () -> Alcotest.fail "expected Invalid_model"
  | exception Slim.Model.Invalid_model _ -> ()

let test_algebraic_loop_detected () =
  (* A gain feeding itself (via sum) with no delay in the loop. *)
  let blocks =
    [|
      { Slim.Model.id = 0; bname = "in"; kind = Slim.Model.Inport ("x", V.tint);
        srcs = [||] };
      {
        Slim.Model.id = 1;
        bname = "sum";
        kind = Slim.Model.Sum [ Slim.Model.Plus; Slim.Model.Plus ];
        srcs =
          [|
            Some { Slim.Model.s_block = 0; s_port = 0 };
            Some { Slim.Model.s_block = 1; s_port = 0 };
          |];
      };
      { Slim.Model.id = 2; bname = "out"; kind = Slim.Model.Outport "y";
        srcs = [| Some { Slim.Model.s_block = 1; s_port = 0 } |] };
    |]
  in
  let m = { Slim.Model.m_name = "loop"; blocks; stores = [] } in
  match Slim.Model.validate m with
  | () -> Alcotest.fail "expected algebraic loop error"
  | exception Slim.Model.Invalid_model msg ->
    check Alcotest.bool "mentions loop" true
      (let has sub s =
         let n = String.length sub and m = String.length s in
         let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
         go 0
       in
       has "loop" msg)

let test_block_count () =
  let b = B.create "bc" in
  let x = B.inport b "x" V.tint in
  let pos = B.compare_const b Ir.Ge 0.0 x in
  let outs =
    B.if_else b ~then_sys:(sub_double ()) ~else_sys:(sub_negate ()) ~cond:pos
      [ x ]
  in
  (match outs with [ y ] -> B.outport b "y" y | _ -> ());
  let m = B.finish b in
  (* top: inport + compare + ifelse + outport = 4; each sub: 3 blocks *)
  check Alcotest.int "recursive block count" 10 (Slim.Model.block_count m)

let prop_interp_deterministic =
  QCheck.Test.make ~name:"interpreter is deterministic" ~count:100
    QCheck.(small_signed_int)
    (fun x ->
      let st0 = init accumulator_prog in
      let ins = [ ("x", vi x) ] in
      let o1, s1 = run_step accumulator_prog st0 ins in
      let o2, s2 = run_step accumulator_prog st0 ins in
      Exec.state_equal s1 s2 && V.equal (out_value o1 "y") (out_value o2 "y"))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "slim"
    [
      ( "value",
        [
          Alcotest.test_case "arith" `Quick test_value_arith;
          Alcotest.test_case "errors" `Quick test_value_errors;
          Alcotest.test_case "string roundtrip" `Quick test_value_string_roundtrip;
        ] );
      qsuite "value-props" [ prop_random_member; prop_copy_independent ];
      ( "value-ref",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19 |])
            prop_ops_match_reference;
          Alcotest.test_case "small-int table edges" `Quick test_small_int_table;
        ] );
      ( "ir",
        [
          Alcotest.test_case "atoms" `Quick test_atoms;
          Alcotest.test_case "type check ok" `Quick test_type_check_ok;
          Alcotest.test_case "type check fails" `Quick test_type_check_fails;
          Alcotest.test_case "renumber" `Quick test_renumber;
        ] );
      ("branch", [ Alcotest.test_case "structure" `Quick test_branches ]);
      ( "interp",
        [
          Alcotest.test_case "state threading" `Quick test_interp_state_threading;
          Alcotest.test_case "events" `Quick test_interp_events;
          Alcotest.test_case "vector state" `Quick test_interp_vector_state;
        ] );
      qsuite "interp-props" [ prop_interp_deterministic ];
      ( "compile",
        [
          Alcotest.test_case "thermostat" `Quick test_compile_thermostat;
          Alcotest.test_case "delay+counter" `Quick test_compile_delay_counter;
          Alcotest.test_case "switch" `Quick test_compile_switch_decision;
          Alcotest.test_case "multiport" `Quick test_compile_multiport;
          Alcotest.test_case "data store" `Quick test_compile_data_store;
          Alcotest.test_case "if/else subsystem" `Quick test_compile_if_else_subsystem;
          Alcotest.test_case "enabled held" `Quick test_compile_enabled_held;
          Alcotest.test_case "unconnected input" `Quick test_validate_catches_unconnected;
          Alcotest.test_case "algebraic loop" `Quick test_algebraic_loop_detected;
          Alcotest.test_case "block count" `Quick test_block_count;
        ] );
    ]
