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
let value = Alcotest.testable V.pp V.equal

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

(* --- vector value semantics -----------------------------------------

   A store copies a vector, so no two variables, and no variable and a
   program constant, share one.  Two programs that showed the aliasing:
   [x := [0,0]; o := x[0]; x[0] := u] wrote [u] into the compiled
   constant, so the next step read it back; [b := a; b[0] := u] also
   changed [a], so concrete execution reached an [a[0] = 5] branch that
   the symbolic explorer (which always had value semantics) proves
   unreachable. *)

module Ir = Slim.Ir

let vec2 = V.Tvec (V.tint_range 0 10, 2)
let zeros () = V.Vec [| V.Int 0; V.Int 0 |]

let const_write_prog =
  let open Ir in
  renumber_decisions
    {
      name = "const-write";
      inputs = [ input "u" (V.tint_range 0 10) ];
      outputs = [ output "o" (V.tint_range 0 10) ];
      states = [ state "x" vec2 (zeros ()) ];
      locals = [];
      body =
        [
          assign_state "x" (Const (zeros ()));
          assign_out "o" (index (sv "x") (ci 0));
          assign_state_idx "x" (ci 0) (iv "u");
        ];
    }

let alias_prog =
  let open Ir in
  renumber_decisions
    {
      name = "alias";
      inputs = [ input "u" (V.tint_range 0 10) ];
      outputs = [ output "o" (V.tint_range 0 1) ];
      states = [ state "a" vec2 (zeros ()); state "b" vec2 (zeros ()) ];
      locals = [];
      body =
        [
          assign_state_idx "a" (ci 1) (iv "u");
          assign_state "b" (sv "a");
          assign_state_idx "b" (ci 0) (iv "u");
          if_ (index (sv "a") (ci 0) =: ci 5) [ assign_out "o" (ci 1) ]
            [ assign_out "o" (ci 0) ];
        ];
    }

(* Two steps, [u = 5] then [u = 7], through the compiled path and the
   reference interpreter: both must give the expected outputs and next
   state. *)
let check_two_steps prog ~out ~state =
  Ir.type_check prog;
  let ex = Exec.handle prog in
  let u n = [ ("u", V.Int n) ] in
  let _, s1 = Exec.run_step ex (Exec.initial_state ex) (Exec.inputs_of_list ex (u 5)) in
  let o2, s2 = Exec.run_step ex s1 (Exec.inputs_of_list ex (u 7)) in
  let ref_out, ref_st =
    let _, m1 =
      Interp.run_step_reference prog (Interp.initial_state prog)
        (Interp.inputs_of_list (u 5))
    in
    Interp.run_step_reference prog m1 (Interp.inputs_of_list (u 7))
  in
  let name = prog.Ir.name in
  let expect sources (k, v) =
    List.iter
      (fun (what, find) -> check value (Fmt.str "%s: %s %s" name what k) v (find k))
      sources
  in
  List.iter
    (expect
       [ ("exec", Exec.find_output ex o2);
         ("reference", fun k -> Interp.Smap.find k ref_out) ])
    out;
  List.iter
    (expect
       [ ("exec", Exec.find_state ex s2);
         ("reference", fun k -> Interp.Smap.find k ref_st) ])
    state

let test_constant_not_mutated () =
  check_two_steps const_write_prog
    ~out:[ ("o", V.Int 0) ]
    ~state:[ ("x", V.Vec [| V.Int 7; V.Int 0 |]) ];
  (* the program's constant itself is untouched *)
  match const_write_prog.Ir.body with
  | Ir.Assign (_, Ir.Const c) :: _ ->
    check value "constant unchanged" (zeros ()) c
  | _ -> Alcotest.fail "unexpected program shape"

let test_assignment_copies () =
  check_two_steps alias_prog
    ~out:[ ("o", V.Int 0) ]
    ~state:[ ("a", V.Vec [| V.Int 0; V.Int 7 |]); ("b", V.Vec [| V.Int 7; V.Int 7 |]) ];
  let ex = Exec.handle alias_prog in
  check Alcotest.int "one decision" 1 (Exec.n_decisions ex);
  let decision = Exec.decision_id ex 0 in
  (* no input reaches the Then branch concretely, and the explorer agrees *)
  for u = 0 to 10 do
    let hits = ref [] in
    ignore
      (Exec.run_step ~on_event:(fun e -> hits := e :: !hits) ex
         (Exec.initial_state ex)
         (Exec.inputs_of_list ex [ ("u", V.Int u) ]));
    check Alcotest.bool
      (Fmt.str "u=%d takes Else" u)
      true
      (List.exists
         (event_equal (Exec.Branch_hit (decision, Branch.Else)))
         !hits)
  done;
  match
    Symexec.Explore.solve_branch alias_prog ~state:(Exec.initial_state ex)
      ~target:(decision, Branch.Then)
  with
  | Symexec.Explore.Unsat, _ -> ()
  | (Symexec.Explore.Sat _ | Symexec.Explore.Unknown), _ ->
    Alcotest.fail "explorer: a[0] = 5 should be Unsat"

(* --- shared guard events --------------------------------------------- *)

(* Events from one step are kept while a hundred more steps run: shared
   events are never written to, so they still equal the reference's
   fresh ones. *)
let test_events_survive_later_steps () =
  List.iter
    (fun name ->
      let prog = (Option.get (Models.Registry.find name)).Models.Registry.program () in
      let ex = Exec.handle prog in
      let rng = Random.State.make [| 0xE7E; String.length name |] in
      let first = Exec.random_inputs rng ex in
      let (_, st), ev_new =
        collect (fun on_event -> Exec.run_step ~on_event ex (Exec.initial_state ex) first)
      in
      let _, ev_ref =
        collect (fun on_event ->
            Interp.run_step_reference ~on_event prog (Interp.initial_state prog)
              (Exec.smap_of_inputs ex first))
      in
      let st = ref st in
      for _ = 1 to 100 do
        let _, st' =
          Exec.run_step ~on_event:ignore ex !st (Exec.random_inputs rng ex)
        in
        st := st'
      done;
      events_equal name 1 ev_ref ev_new)
    [ "CPUTask"; "TWC"; "NICProtocol" ]

(* Two guards over int inputs a0..a6: one of six atoms (the widest that
   takes shared events) and one of seven (built fresh each time). *)
let wide_guards_prog =
  let open Ir in
  let atom i = iv (Printf.sprintf "a%d" i) >: ci 1 in
  let g6 =
    ((atom 0 &&: atom 1) ||: (atom 2 &&: not_ (atom 3))) ||: (atom 4 &&: atom 5)
  in
  let g7 = g6 ||: not_ (atom 6) in
  renumber_decisions
    {
      name = "wide-guards";
      inputs = List.init 7 (fun i -> input (Printf.sprintf "a%d" i) (V.tint_range 0 3));
      outputs = [ output "o" (V.tint_range 0 3) ];
      states = [];
      locals = [];
      body =
        [
          if_ g6 [ assign_out "o" (ci 1) ] [];
          if_ g7 [ assign_out "o" (ci 2) ] [ assign_out "o" (ci 3) ];
        ];
    }

let test_wide_guards_match_reference () =
  let prog = wide_guards_prog in
  Ir.type_check prog;
  let ex = Exec.handle prog in
  check Alcotest.int "two decisions" 2 (Exec.n_decisions ex);
  check Alcotest.int "six atoms" 6 (Exec.atom_base ex 1 - Exec.atom_base ex 0);
  check Alcotest.int "seven atoms" 7 (Exec.atom_base ex 2 - Exec.atom_base ex 1);
  let rng = Random.State.make [| 0x6A7 |] in
  for step = 1 to 600 do
    let inputs = Exec.random_inputs rng ex in
    let _, ev_ref =
      collect (fun on_event ->
          Interp.run_step_reference ~on_event prog Interp.Smap.empty
            (Exec.smap_of_inputs ex inputs))
    in
    let _, ev_new = collect (fun on_event -> Exec.run_step ~on_event ex [||] inputs) in
    events_equal "wide-guards" step ev_ref ev_new
  done

(* A write to a name no declaration binds raises when it is reached, in
   the compiled path and in the reference interpreter alike (the read
   after it is never reached).  [Ir.type_check] rejects the program, so
   only a hand-built one gets here. *)
let test_undeclared_write_raises () =
  let open Ir in
  let prog =
    {
      name = "ghost";
      inputs = [ input "x" (V.tint_range 0 9) ];
      outputs = [ output "y" (V.tint_range 0 9) ];
      states = [];
      locals = [];
      body = [ assign "ghost" (iv "x"); assign_out "y" (lv "ghost") ];
    }
  in
  let inputs = [ ("x", V.Int 3) ] in
  let outcome f =
    match f () with
    | (_ : V.t Interp.Smap.t * V.t Interp.Smap.t) -> "ok"
    | exception Interp.Eval_error msg -> msg
  in
  let expected = "unbound local variable ghost" in
  check Alcotest.string "reference" expected
    (outcome (fun () ->
         Interp.run_step_reference prog Interp.Smap.empty
           (Interp.inputs_of_list inputs)));
  let ex = Exec.handle prog in
  check Alcotest.string "exec" expected
    (outcome (fun () ->
         let out, st =
           Exec.run_step ex (Exec.initial_state ex) (Exec.inputs_of_list ex inputs)
         in
         (Exec.smap_of_outputs ex out, Exec.smap_of_state ex st)))

(* The lowering numbers decisions in syntactic pre-order, the order of
   the reference walk, which is what [Exec.decision_pos] indexes. *)
let test_lowered_decision_order () =
  List.iter
    (fun (e : Models.Registry.entry) ->
      let prog = e.Models.Registry.program () in
      let ex = Exec.handle prog in
      let lowered = (Exec.lowered ex).Slim.Lower.decisions in
      let expected = Ref_structure.decisions_of_program prog in
      check Alcotest.int "decision count" (List.length expected) (Array.length lowered);
      List.iteri
        (fun p (id, _) ->
          match lowered.(p) with
          | Slim.Lower.If { id = id'; pos; _ } | Slim.Lower.Switch { id = id'; pos; _ } ->
            check Alcotest.(pair int int) e.Models.Registry.name (id, p) (id', pos);
            check Alcotest.int "decision_pos" p (Exec.decision_pos ex id)
          | Slim.Lower.Assign _ -> Alcotest.fail "an assignment among the decisions")
        expected)
    Models.Registry.entries

(* --- the structure tables against the reference walks ------------------

   [Ref_structure] keeps the [Ir] walks the lowering replaced.  The
   handle must agree with it: the branch list in order (key, parent,
   depth, guard), the decision id and atom count at each position, the
   atom bases (the handle's and each lowered [If]'s), the tracker's
   condition and MC/DC totals, and each guard's atom function, on
   every atom vector up to six atoms and on 64 sampled ones above. *)

let structure_difference prog =
  let ex = Exec.handle prog in
  let r = Ref_structure.of_program prog in
  let tracker = Coverage.Tracker.create prog in
  let rng = Util.Splitmix.create 0 in
  let pp_branch ppf (b : Branch.t) =
    Fmt.pf ppf "%a parent=%a" Branch.pp b Fmt.(option ~none:(any "-") Branch.pp_key) b.parent
  in
  let first_some checks = List.find_map (fun f -> f ()) checks in
  let branches () =
    let hb = Exec.branches ex in
    if List.length hb <> List.length r.branches then
      Some (Fmt.str "%d branches, reference %d" (List.length hb) (List.length r.branches))
    else
      List.find_map
        (fun ((a : Branch.t), (b : Branch.t)) ->
          if compare a b = 0 then None
          else Some (Fmt.str "%a, reference %a" pp_branch b pp_branch a))
        (List.combine r.branches hb)
  in
  let vectors n =
    if n <= 6 then List.init (1 lsl n) (fun m -> Array.init n (fun i -> m land (1 lsl i) <> 0))
    else List.init 64 (fun _ -> Array.init n (fun _ -> Util.Splitmix.int rng 2 = 0))
  in
  let decision pos (d : Ref_structure.decision_info) base =
    let lowered_base =
      match (Exec.lowered ex).Slim.Lower.decisions.(pos) with
      | Slim.Lower.If { atom_base; _ } -> atom_base
      | Slim.Lower.Switch _ | Slim.Lower.Assign _ -> base
    in
    if Exec.decision_id ex pos <> d.d_id then
      Some (Fmt.str "decision %d at position %d, reference %d" (Exec.decision_id ex pos) pos d.d_id)
    else if Exec.atom_count ex pos <> d.d_atom_count then
      Some (Fmt.str "decision %d: %d atoms, reference %d" d.d_id (Exec.atom_count ex pos) d.d_atom_count)
    else if Exec.atom_base ex pos <> base || lowered_base <> base then
      Some
        (Fmt.str "decision %d: atom base %d (lowered %d), reference %d" d.d_id
           (Exec.atom_base ex pos) lowered_base base)
    else
      List.find_map
        (fun v ->
          if Exec.guard_fn ex pos v = d.d_fn v then None
          else
            Some
              (Fmt.str "decision %d: guard on %a" d.d_id
                 Fmt.(array ~sep:nop (fun ppf b -> string ppf (if b then "T" else "F")))
                 v))
        (if d.d_atom_count = 0 then [] else vectors d.d_atom_count)
  in
  let decisions () =
    if Exec.n_decisions ex <> List.length r.decisions then
      Some (Fmt.str "%d decisions, reference %d" (Exec.n_decisions ex) (List.length r.decisions))
    else
      let rec go pos base = function
        | [] ->
          if Exec.atom_base ex pos = base then None
          else Some (Fmt.str "atom total %d, reference %d" (Exec.atom_base ex pos) base)
        | d :: rest -> (
          match decision pos d base with
          | Some _ as diff -> diff
          | None -> go (pos + 1) (base + d.Ref_structure.d_atom_count) rest)
      in
      go 0 0 r.decisions
  in
  let totals () =
    let total (x : Coverage.Tracker.ratio) = x.Coverage.Tracker.total in
    let got =
      ( total (Coverage.Tracker.decision tracker),
        total (Coverage.Tracker.condition tracker),
        total (Coverage.Tracker.mcdc tracker) )
    and want = (r.decision_total, r.condition_total, r.mcdc_total) in
    if got = want then None
    else
      let pp = Fmt.(parens (list ~sep:comma int)) in
      let l (a, b, c) = [ a; b; c ] in
      Some (Fmt.str "totals %a, reference %a" pp (l got) pp (l want))
  in
  first_some [ branches; decisions; totals ]

let check_structure programs =
  List.iter
    (fun (name, prog) ->
      match structure_difference prog with
      | None -> ()
      | Some diff -> Alcotest.failf "%s: %s" name diff)
    programs

let test_structure_registry () =
  check_structure
    (List.map
       (fun (e : Models.Registry.entry) -> (e.Models.Registry.name, e.Models.Registry.program ()))
       Models.Registry.entries)

let test_structure_fuzz () =
  check_structure
    (List.init 500 (fun i ->
         let model, _, _ = Fuzzer.Campaign.case_gen ~seed:0 ~max_steps:4 i in
         (Fmt.str "fuzz case %d" i, Fuzzer.Gen.program_of model)))

(* --- allocation ------------------------------------------------------

   In the style of the term front-cache test: telemetry off, the handle
   warmed, and each operation measured with [Gc.minor_words]. *)

let minor_words_of f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let guard_only_prog =
  { wide_guards_prog with Ir.name = "guard-only"; body = [ List.hd wide_guards_prog.Ir.body ] }

let test_warm_paths_allocate_nothing () =
  Telemetry.disable ();
  let baseline = minor_words_of (fun () -> ()) in
  let words name f =
    ignore (f ());
    let w = minor_words_of f -. baseline in
    check (Alcotest.float 0.) (name ^ ": minor words") 0. w
  in
  (* a guard: a step with one six-atom guard against the same step with
     an empty body, over all 64 combinations of its atoms *)
  let all_inputs ex =
    List.init 64 (fun m ->
        Exec.inputs_of_list ex
          (List.init 6 (fun i ->
               (Printf.sprintf "a%d" i, V.Int (if m land (1 lsl i) <> 0 then 2 else 0)))))
  in
  let step_words prog =
    let ex = Exec.handle prog in
    let inputs = all_inputs ex in
    let run () =
      List.iter (fun i -> ignore (Sys.opaque_identity (Exec.run_step ~on_event:ignore ex [||] i))) inputs
    in
    run ();
    minor_words_of run
  in
  check (Alcotest.float 0.) "guard: minor words" 0.
    (step_words guard_only_prog -. step_words { guard_only_prog with Ir.body = [] });
  (* hashing and equality of states, vectors included *)
  let prog = (Option.get (Models.Registry.find "CPUTask")).Models.Registry.program () in
  let ex = Exec.handle prog in
  let rng = Random.State.make [| 0xA11 |] in
  let st = ref (Exec.initial_state ex) in
  for _ = 1 to 40 do
    st := snd (Exec.run_step ex !st (Exec.random_inputs rng ex))
  done;
  let a = Array.append !st [| V.Real 1.5; V.Vec [| V.Int 3; V.Real (-0.0) |] |] in
  let b = Array.map V.copy a in
  words "state_hash" (fun () -> Exec.state_hash a);
  words "state_equal" (fun () -> Exec.state_equal a b);
  check Alcotest.bool "copies are equal" true (Exec.state_equal a b);
  let three = V.Int 3 and four = V.Int 4 in
  words "Value.add" (fun () -> V.add three four);
  (* a dedup hit in the state tree allocates only its result tuple *)
  let tree = Stcg.State_tree.create prog in
  let root = Stcg.State_tree.root tree in
  let input = Exec.random_inputs rng ex in
  let _, is_new = Stcg.State_tree.add_child tree ~parent:root ~input (Array.map V.copy !st) in
  check Alcotest.bool "first insert is new" true is_new;
  let again = Array.map V.copy !st in
  let hit () = Stcg.State_tree.add_child tree ~parent:root ~input again in
  let _, is_new = hit () in
  check Alcotest.bool "dedup hit" false is_new;
  check (Alcotest.float 0.) "add_child hit: only the result tuple" 3.
    (minor_words_of hit -. baseline)

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
          Alcotest.test_case "constants not mutated" `Quick
            test_constant_not_mutated;
          Alcotest.test_case "assignment copies vectors" `Quick
            test_assignment_copies;
          Alcotest.test_case "events survive later steps" `Quick
            test_events_survive_later_steps;
          Alcotest.test_case "6- and 7-atom guards" `Quick
            test_wide_guards_match_reference;
          Alcotest.test_case "warm paths allocate nothing" `Quick
            test_warm_paths_allocate_nothing;
          Alcotest.test_case "undeclared write raises" `Quick
            test_undeclared_write_raises;
          Alcotest.test_case "lowered decision order" `Quick
            test_lowered_decision_order;
        ] );
      ( "structure = reference",
        [
          Alcotest.test_case "registry models" `Quick test_structure_registry;
          Alcotest.test_case "fuzz programs (seed 0)" `Quick test_structure_fuzz;
        ] );
    ]
