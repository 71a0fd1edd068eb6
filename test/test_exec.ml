(* Differential test for the slot-compiled execution core.

   The seed's map-based interpreter is kept verbatim as
   [Interp.run_step_reference]; this test drives it and the compiled
   [Slim.Exec] path in lockstep over every registry model for hundreds
   of random steps and demands bit-identical outputs, next-state
   snapshots, and coverage event streams.  It is the proof that the
   slot compilation is a pure representation change. *)

module V = Slim.Value
module Interp = Slim.Interp
module Exec = Slim.Exec
module Branch = Slim.Branch

let check = Alcotest.check

let steps_per_model = 220

let event_equal (a : Exec.event) (b : Exec.event) =
  match a, b with
  | Exec.Branch_hit ka, Exec.Branch_hit kb -> Branch.equal_key ka kb
  | ( Exec.Cond_vector { id = ia; vector = va; outcome = oa },
      Exec.Cond_vector { id = ib; vector = vb; outcome = ob } ) ->
    ia = ib && va = vb && oa = ob
  | _ -> false

let pp_event ppf = function
  | Exec.Branch_hit k -> Fmt.pf ppf "Branch_hit %a" Branch.pp_key k
  | Exec.Cond_vector { id; vector; outcome } ->
    Fmt.pf ppf "Cond_vector {id=%d; vector=[%a]; outcome=%b}" id
      Fmt.(array ~sep:(any ";") bool)
      vector outcome

let events_equal name step la lb =
  if
    List.length la <> List.length lb
    || not (List.for_all2 event_equal la lb)
  then
    Alcotest.failf "%s step %d: event streams differ@.reference: %a@.exec: %a"
      name step
      Fmt.(list ~sep:(any "; ") pp_event)
      la
      Fmt.(list ~sep:(any "; ") pp_event)
      lb

let collect f =
  let events = ref [] in
  let out = f (fun e -> events := e :: !events) in
  (out, List.rev !events)

(* One model: run the reference interpreter and the compiled handle in
   lockstep from the initial state. *)
let differential (entry : Models.Registry.entry) () =
  let prog = entry.Models.Registry.program () in
  let name = entry.Models.Registry.name in
  let ex = Exec.handle prog in
  let rng = Random.State.make [| 0xD1FF; String.length name |] in
  let st_ref = ref (Interp.initial_state prog) in
  let st_new = ref (Exec.initial_state ex) in
  check Alcotest.bool (name ^ ": initial snapshots agree") true
    (Interp.snapshot_equal !st_ref (Exec.smap_of_state ex !st_new));
  for step = 1 to steps_per_model do
    let einputs = Exec.random_inputs rng ex in
    let minputs = Exec.smap_of_inputs ex einputs in
    let (out_ref, st_ref'), ev_ref =
      collect (fun on_event ->
          Interp.run_step_reference ~on_event prog !st_ref minputs)
    in
    let (out_new, st_new'), ev_new =
      collect (fun on_event -> Exec.run_step ~on_event ex !st_new einputs)
    in
    events_equal name step ev_ref ev_new;
    if not (Interp.Smap.equal V.equal out_ref (Exec.smap_of_outputs ex out_new))
    then Alcotest.failf "%s step %d: outputs differ" name step;
    if not (Interp.snapshot_equal st_ref' (Exec.smap_of_state ex st_new'))
    then Alcotest.failf "%s step %d: next-state snapshots differ" name step;
    (* interned-state invariant: equal states must hash equal *)
    let round = Exec.state_of_smap ex (Exec.smap_of_state ex st_new') in
    check Alcotest.bool (name ^ ": smap round-trip equal") true
      (Exec.state_equal st_new' round);
    check Alcotest.bool (name ^ ": equal states hash equal") true
      (Exec.state_hash st_new' = Exec.state_hash round);
    st_ref := st_ref';
    st_new := st_new'
  done

(* --- standalone Stateflow charts --------------------------------------

   The registry models embed charts as diagram blocks; these cases
   compile charts directly through [Sf_compile.to_program] so the
   hierarchical-entry / transition-priority IR shape is differentially
   tested on its own.  Charts come from the fuzzer's generator at fixed
   seeds, so the shapes vary (entry/during actions, guarded
   transitions, persistent data) but every run is reproducible. *)

let chart_programs =
  let rec collect seed acc n =
    if n = 0 then List.rev acc
    else
      let rng = Util.Splitmix.create seed in
      match Fuzzer.Gen.gen_model rng ~size:10 with
      | Fuzzer.Gen.M_chart c ->
        collect (seed + 1)
          ((Fmt.str "chart-seed-%d" seed, Stateflow.Sf_compile.to_program
              (Fuzzer.Gen.chart_of_spec c))
           :: acc)
          (n - 1)
      | Fuzzer.Gen.M_diagram _ -> collect (seed + 1) acc n
  in
  collect 0 [] 6

let chart_differential (name, prog) () =
  let ex = Exec.handle prog in
  let rng = Random.State.make [| 0xC4A7; String.length name |]
  and seed_rng = Util.Splitmix.create (String.length name) in
  let irng = Util.Splitmix.split seed_rng in
  let st_ref = ref (Interp.initial_state prog) in
  let st_new = ref (Exec.initial_state ex) in
  for step = 1 to 120 do
    (* alternate harness RNG and fuzzer-biased draws so thresholds trip *)
    let einputs =
      if step mod 2 = 0 then Exec.random_inputs rng ex
      else
        Exec.inputs_of_list ex
          (List.map
             (fun (v : Slim.Ir.var) ->
               (v.Slim.Ir.name, Fuzzer.Gen.gen_value irng v.Slim.Ir.ty))
             (Array.to_list (Exec.input_vars ex)))
    in
    let minputs = Exec.smap_of_inputs ex einputs in
    let (out_ref, st_ref'), ev_ref =
      collect (fun on_event ->
          Interp.run_step_reference ~on_event prog !st_ref minputs)
    in
    let (out_new, st_new'), ev_new =
      collect (fun on_event -> Exec.run_step ~on_event ex !st_new einputs)
    in
    events_equal name step ev_ref ev_new;
    if not (Interp.Smap.equal V.equal out_ref (Exec.smap_of_outputs ex out_new))
    then Alcotest.failf "%s step %d: outputs differ" name step;
    if not (Interp.snapshot_equal st_ref' (Exec.smap_of_state ex st_new'))
    then Alcotest.failf "%s step %d: next-state snapshots differ" name step;
    st_ref := st_ref';
    st_new := st_new'
  done

(* --- snapshot / restore mid-sequence ----------------------------------

   The engine's whole point is replaying from stored state snapshots:
   save a state mid-run, keep executing (diverging), then restore the
   snapshot and demand the continuation is bit-identical to the first
   pass.  Exercised through both the slot array and the smap bridge. *)

let snapshot_restore_roundtrip (entry : Models.Registry.entry) () =
  let prog = entry.Models.Registry.program () in
  let name = entry.Models.Registry.name in
  let ex = Exec.handle prog in
  let rng = Random.State.make [| 0x5A7E; String.length name |] in
  (* run 30 steps to land in a non-trivial state *)
  let st = ref (Exec.initial_state ex) in
  for _ = 1 to 30 do
    let _, st' = Exec.run_step ex !st (Exec.random_inputs rng ex) in
    st := st'
  done;
  let snapshot = Array.map V.copy !st in
  let smap_snapshot = Exec.smap_of_state ex !st in
  (* fixed continuation input sequence *)
  let cont_rng = Random.State.make [| 0xC047 |] in
  let cont = List.init 25 (fun _ -> Exec.random_inputs cont_rng ex) in
  let run_from st0 =
    let st = ref st0 in
    List.map
      (fun ins ->
        let out, st' = Exec.run_step ex !st ins in
        st := st';
        (out, st'))
      cont
  in
  let first = run_from !st in
  (* diverge: 40 more steps with other inputs from the same live state *)
  let div = ref !st in
  for _ = 1 to 40 do
    let _, st' = Exec.run_step ex !div (Exec.random_inputs rng ex) in
    div := st'
  done;
  (* restore from the raw snapshot and from the smap bridge *)
  List.iter
    (fun (restored, how) ->
      check Alcotest.bool
        (Fmt.str "%s: %s restores the saved state" name how)
        true
        (Exec.state_equal restored snapshot);
      let second = run_from restored in
      List.iteri
        (fun i ((out1, st1), (out2, st2)) ->
          if not (Exec.values_equal out1 out2) then
            Alcotest.failf "%s (%s) step %d: outputs diverge after restore"
              name how i;
          if not (Exec.state_equal st1 st2) then
            Alcotest.failf "%s (%s) step %d: states diverge after restore"
              name how i)
        (List.combine first second))
    [
      (Array.map V.copy snapshot, "array snapshot");
      (Exec.state_of_smap ex smap_snapshot, "smap round-trip");
    ]

let test_hash_numeric_coherence () =
  (* Value.equal equates Int n and Real (float n), and 0. and -0.; the
     structural hash must follow or interning would split equal states *)
  let pairs =
    [
      ([| V.Int 42 |], [| V.Real 42.0 |]);
      ([| V.Real 0.0 |], [| V.Real (-0.0) |]);
      ( [| V.Vec [| V.Int 3; V.Bool true |] |],
        [| V.Vec [| V.Real 3.0; V.Bool true |] |] );
    ]
  in
  List.iter
    (fun (a, b) ->
      check Alcotest.bool "values equal" true (Exec.values_equal a b);
      check Alcotest.bool "hashes equal" true
        (Exec.values_hash a = Exec.values_hash b))
    pairs

let test_run_step_does_not_mutate () =
  let prog = (Option.get (Models.Registry.find "CPUTask")).program () in
  let ex = Exec.handle prog in
  let st = Exec.initial_state ex in
  let st_copy = Array.copy st in
  let rng = Random.State.make [| 7 |] in
  let ins = Exec.random_inputs rng ex in
  let ins_copy = Array.copy ins in
  let _ = Exec.run_step ex st ins in
  check Alcotest.bool "state untouched" true (Exec.values_equal st st_copy);
  check Alcotest.bool "inputs untouched" true (Exec.values_equal ins ins_copy)

let () =
  Alcotest.run "exec"
    [
      ( "differential vs reference interpreter",
        List.map
          (fun (e : Models.Registry.entry) ->
            Alcotest.test_case e.Models.Registry.name `Quick (differential e))
          Models.Registry.entries );
      ( "standalone charts vs reference interpreter",
        List.map
          (fun (name, prog) ->
            Alcotest.test_case name `Quick (chart_differential (name, prog)))
          chart_programs );
      ( "snapshot/restore round-trips",
        List.map
          (fun (e : Models.Registry.entry) ->
            Alcotest.test_case e.Models.Registry.name `Quick
              (snapshot_restore_roundtrip e))
          Models.Registry.entries );
      ( "representation",
        [
          Alcotest.test_case "hash/equal numeric coherence" `Quick
            test_hash_numeric_coherence;
          Alcotest.test_case "run_step purity" `Quick
            test_run_step_does_not_mutate;
        ] );
    ]
