(* Tests for lib/analysis: verdict goldens on the registry models,
   directed diagnostics on hand-built programs, widening soundness, and
   the engine's dead-objective skip (justified coverage reporting plus
   testcase equivalence against the no-analysis run). *)

module V = Slim.Value
module Ir = Slim.Ir
module Branch = Slim.Branch
module Analyzer = Analysis.Analyzer
module Verdict = Analysis.Verdict
module Diag = Analysis.Diag
module Lint = Analysis.Lint
module Engine = Stcg.Engine
module Tracker = Coverage.Tracker

let check = Alcotest.check

let registry_prog name =
  match Models.Registry.find name with
  | Some e -> e.Models.Registry.program ()
  | None -> Alcotest.failf "registry model %s missing" name

let dead_branches name =
  Verdict.dead_branches (Verdict.of_program (registry_prog name))

let has_branch key l = List.exists (Branch.equal_key key) l

let codes prog =
  List.map (fun (d : Diag.t) -> Diag.code_id d.Diag.d_code) (Lint.run prog)

(* --- registry verdict goldens ------------------------------------------ *)

(* AFC decision 17 has a constant-false guard: its then branch is
   statically dead (also reported as A102 by the linter). *)
let test_afc_dead () =
  let dead = dead_branches "AFC" in
  check Alcotest.bool "AFC (17, Then) dead" true
    (has_branch (17, Branch.Then) dead);
  check Alcotest.int "AFC one dead branch" 1 (List.length dead)

(* NICProtocol's dead transition sits inside a chart dispatch (A402). *)
let test_nic_dead () =
  let dead = dead_branches "NICProtocol" in
  check Alcotest.bool "NIC (16, Then) dead" true
    (has_branch (16, Branch.Then) dead);
  check Alcotest.int "NIC one dead branch" 1 (List.length dead)

(* LEDLC dispatches over enumerations whose defaults can never fire. *)
let test_ledlc_dead () =
  let dead = dead_branches "LEDLC" in
  List.iter
    (fun d ->
      check Alcotest.bool (Fmt.str "LEDLC (%d, Default) dead" d) true
        (has_branch (d, Branch.Default) dead))
    [ 16; 17; 18; 19; 24 ];
  check Alcotest.int "LEDLC five dead branches" 5 (List.length dead)

let test_tcp_clean () =
  let s = Verdict.of_program (registry_prog "TCP") in
  let b, c, m = Verdict.counts s Verdict.Dead in
  check Alcotest.(triple int int int) "TCP no dead objectives" (0, 0, 0)
    (b, c, m);
  check Alcotest.(list string) "TCP lints clean" []
    (codes (registry_prog "TCP"))

(* Every registry model's analysis must terminate within the fixpoint
   hard cap (no fallback-to-top escape needed) and produce verdicts for
   every branch objective. *)
let test_registry_total () =
  List.iter
    (fun (e : Models.Registry.entry) ->
      let prog = e.Models.Registry.program () in
      let r = Analyzer.analyze prog in
      check Alcotest.bool
        (Fmt.str "%s iterations positive" e.Models.Registry.name)
        true (r.Analyzer.r_iterations > 0);
      let summary = Verdict.of_result r in
      check Alcotest.int
        (Fmt.str "%s verdict per branch" e.Models.Registry.name)
        (Slim.Exec.n_branches (Slim.Exec.handle prog))
        (List.length summary.Verdict.v_branches))
    Models.Registry.entries

(* --- directed diagnostics ---------------------------------------------- *)

let simple ?(inputs = []) ?(states = []) ?(locals = []) ?(outputs = [])
    body =
  let prog =
    Ir.renumber_decisions
      { Ir.name = "t"; inputs; outputs; states; locals; body }
  in
  Ir.type_check prog;
  prog

let test_diag_const_guards () =
  let prog =
    simple
      ~inputs:[ Ir.input "x" (V.tint_range 0 10) ]
      ~outputs:[ Ir.output "y" V.Tbool; Ir.output "z" V.Tbool ]
      Ir.
        [
          if_ (iv "x" >=: ci 0)
            [ assign_out "y" (cb true) ]
            [ assign_out "y" (cb false) ];
          if_ (iv "x" >: ci 20)
            [ assign_out "z" (cb true) ]
            [ assign_out "z" (cb false) ];
        ]
  in
  check Alcotest.(list string) "A101 + A102" [ "A101"; "A102" ] (codes prog);
  let s = Verdict.of_program prog in
  check Alcotest.bool "else of always-true guard dead" true
    (has_branch (0, Branch.Else) (Verdict.dead_branches s));
  check Alcotest.bool "then of always-false guard dead" true
    (has_branch (1, Branch.Then) (Verdict.dead_branches s))

let test_diag_switch () =
  let prog =
    simple
      ~inputs:[ Ir.input "op" (V.tint_range 0 2) ]
      ~outputs:[ Ir.output "y" V.tint ]
      Ir.
        [
          switch (iv "op")
            [ (0, [ assign_out "y" (ci 1) ]);
              (1, [ assign_out "y" (ci 2) ]);
              (5, [ assign_out "y" (ci 3) ]) ]
            [ assign_out "y" (ci 4) ];
        ]
  in
  check Alcotest.(list string) "A103 for case 5" [ "A103" ] (codes prog);
  let dead = Verdict.dead_branches (Verdict.of_program prog) in
  check Alcotest.bool "case 5 dead" true (has_branch (0, Branch.Case 5) dead);
  (* Exhaustive cases kill the default. *)
  let prog =
    simple
      ~inputs:[ Ir.input "op" (V.tint_range 0 1) ]
      ~outputs:[ Ir.output "y" V.tint ]
      Ir.
        [
          switch (iv "op")
            [ (0, [ assign_out "y" (ci 1) ]); (1, [ assign_out "y" (ci 2) ]) ]
            [ assign_out "y" (ci 3) ];
        ]
  in
  check Alcotest.(list string) "A104 for default" [ "A104" ] (codes prog);
  let dead = Verdict.dead_branches (Verdict.of_program prog) in
  check Alcotest.bool "default dead" true (has_branch (0, Branch.Default) dead)

let test_diag_locals () =
  let prog =
    simple
      ~inputs:[ Ir.input "x" V.tint ]
      ~outputs:[ Ir.output "y" V.tint ]
      ~locals:[ Ir.local "t" V.tint ]
      Ir.[ assign_out "y" (lv "t" +: iv "x") ]
  in
  check Alcotest.(list string) "A201 uninit read" [ "A201" ] (codes prog);
  let prog =
    simple
      ~inputs:[ Ir.input "x" V.tint ]
      ~outputs:[ Ir.output "y" V.tint ]
      ~locals:[ Ir.local "t" V.tint ]
      Ir.
        [
          assign "t" (iv "x");
          assign "t" (iv "x" +: ci 1);
          assign_out "y" (lv "t");
        ]
  in
  check Alcotest.(list string) "A202 dead store" [ "A202" ] (codes prog)

let test_diag_index () =
  let vec3 = V.Tvec (V.tint, 3) in
  let prog =
    simple
      ~inputs:[ Ir.input "i" (V.tint_range 0 5) ]
      ~outputs:[ Ir.output "y" V.tint ]
      ~states:[ Ir.state "buf" vec3 (V.Vec [| V.Int 0; V.Int 0; V.Int 0 |]) ]
      Ir.[ assign_out "y" (index (sv "buf") (iv "i")) ]
  in
  check Alcotest.(list string) "A301 may-OOB" [ "A301" ] (codes prog);
  let prog =
    simple
      ~outputs:[ Ir.output "y" V.tint ]
      ~states:[ Ir.state "buf" vec3 (V.Vec [| V.Int 0; V.Int 0; V.Int 0 |]) ]
      Ir.[ assign_out "y" (index (sv "buf") (ci 7)) ]
  in
  check Alcotest.bool "A302 always-OOB" true (List.mem "A302" (codes prog))

(* --- one resolution rule: the last declaration of a name --------------- *)

let test_duplicate_declarations () =
  (* the body reads the second [t] (default 5) and the second [s]
     (snapshot 4), so both guards are always true; the first
     declarations (0 and 3) would make both always false *)
  let r = Analyzer.record_at Dup_decls.prog ~state:Dup_decls.state in
  let always_true id =
    match Analyzer.guard_fact r id with
    | Some g -> g.Analyzer.g_val = Solver.Interval.b3_true
    | None -> false
  in
  check Alcotest.bool "t reads the second local" true (always_true 0);
  check Alcotest.bool "s reads the second state" true (always_true 1);
  check Alcotest.(array bool) "only the second s is relevant" [| false; true |]
    (Symexec.Explore.relevant_state_slots Dup_decls.prog)

(* --- SOUND/int-cells: a real stored in an int-declared variable --------- *)

(* Fuzz seed 1, cases 156 and 190 at max-steps 8, store a real into an
   int-declared variable (case 190: [out:y := -1.24 + 0.5]).  The
   octagon used to round such a cell to empty and call a branch that
   the case's own inputs cover dead. *)
let test_real_in_int_cell case key () =
  let model, _, gen_inputs = Fuzzer.Campaign.case_gen ~seed:1 ~max_steps:8 case in
  let prog = Fuzzer.Gen.program_of model in
  let ex = Slim.Exec.handle prog in
  let covered = ref [] in
  let on_event = function
    | Slim.Exec.Branch_hit k -> covered := k :: !covered
    | Slim.Exec.Cond_vector _ -> ()
  in
  (try
     ignore
       (Slim.Exec.run_sequence ~on_event ex (Slim.Exec.initial_state ex)
          (List.map (Slim.Exec.inputs_of_list ex) (gen_inputs prog)))
   with Slim.Exec.Eval_error _ -> ());
  check Alcotest.bool
    (Fmt.str "%a covered" Branch.pp_key key)
    true (has_branch key !covered);
  let s = Verdict.of_program ~config:{ Analyzer.domain = `Octagon } prog in
  List.iter
    (fun k ->
      if List.assoc_opt k s.Verdict.v_branches = Some Verdict.Dead then
        Alcotest.failf "covered branch %a is octagon-dead" Branch.pp_key k)
    !covered

(* --- widening: unbounded-ish state must terminate soundly -------------- *)

let test_widening_sound () =
  let prog =
    simple
      ~outputs:[ Ir.output "y" V.Tbool ]
      ~states:[ Ir.state "c" V.tint (V.Int 0) ]
      Ir.
        [
          assign_out "y" (cb false);
          assign_state "c" (sv "c" +: ci 1);
          if_ (sv "c" >: ci 500_000) [ assign_out "y" (cb true) ] [];
        ]
  in
  let r = Analyzer.analyze prog in
  check Alcotest.bool "widening applied" true (r.Analyzer.r_widenings > 0);
  (* The counter really can exceed the threshold, so the branch must not
     be proven dead. *)
  check Alcotest.bool "growing counter branch not dead" true
    (Analyzer.branch_reach r (0, Branch.Then) <> Analyzer.Never)

(* --- engine: dead-objective skip --------------------------------------- *)

(* x : int [0,10]; decision 0's then branch needs x > 20 — statically
   dead; decision 1 is coverable both ways. *)
let dead_demo =
  let open Ir in
  let prog =
    renumber_decisions
      {
        name = "dead_demo";
        inputs = [ input "x" (V.tint_range 0 10) ];
        outputs = [ output "y" V.Tbool ];
        states = [];
        locals = [];
        body =
          [
            assign_out "y" (cb false);
            if_ (iv "x" >: ci 20) [ assign_out "y" (cb true) ] [];
            if_ (iv "x" >: ci 5) [ assign_out "y" (cb true) ] [];
          ];
      }
  in
  type_check prog;
  prog

let tel_skipped = Telemetry.Counter.make "engine.objectives_skipped_dead"

let tc_essence (r : Engine.run) =
  List.map
    (fun (tc : Stcg.Testcase.t) ->
      (List.map Array.to_list tc.Stcg.Testcase.steps,
       tc.Stcg.Testcase.new_branches))
    r.Engine.r_testcases

let steps_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (sa, ba) (sb, bb) ->
         ba = bb
         && List.length sa = List.length sb
         && List.for_all2
              (fun ra rb ->
                List.length ra = List.length rb
                && List.for_all2 V.equal ra rb)
              sa sb)
       a b

let test_engine_skip () =
  Telemetry.enable ();
  Telemetry.reset ();
  let cfg analyze =
    { Engine.default_config with Engine.budget = 60.0; seed = 11; analyze }
  in
  let plain = Engine.run ~config:(cfg false) dead_demo in
  check Alcotest.int "no skip without analyze" 0
    (Telemetry.Counter.total tel_skipped);
  let analyzed = Engine.run ~config:(cfg true) dead_demo in
  (* 1 dead branch + 1 dead condition value + 1 degenerate MCDC pair. *)
  check Alcotest.int "skipped objective count" 3
    (Telemetry.Counter.total tel_skipped);
  let jb, jc, jm = Tracker.justified_counts analyzed.Engine.r_tracker in
  check Alcotest.(triple int int int) "justified counts" (1, 1, 1)
    (jb, jc, jm);
  (* Justification shrinks the decision denominator: 4 branches -> 3. *)
  let d = Tracker.decision analyzed.Engine.r_tracker in
  check Alcotest.int "justified decision total" 3 d.Tracker.total;
  check Alcotest.int "justified decision covered" 3 d.Tracker.covered;
  (* With the dead objective justified the run provably saturates; the
     plain run can never cover (0, Then) and must burn its budget. *)
  check Alcotest.bool "analyzed run saturates" true
    (analyzed.Engine.r_stop = Engine.Full_coverage);
  check Alcotest.bool "plain run exhausts budget" true
    (plain.Engine.r_stop = Engine.Budget_exhausted);
  let dp = Tracker.decision plain.Engine.r_tracker in
  check Alcotest.int "plain decision total" 4 dp.Tracker.total;
  check Alcotest.int "plain decision covered" 3 dp.Tracker.covered;
  (* Skipping dead objectives only removes Unsat solver calls, so both
     runs synthesize the same test cases for the live objectives. *)
  check Alcotest.bool "identical testcases" true
    (steps_equal (tc_essence plain) (tc_essence analyzed));
  Telemetry.reset ();
  Telemetry.disable ()

(* The same skip on a registry model: AFC's dead objectives must reach
   the solving loop of a plain STCG run with [analyze] on. *)
let test_engine_skip_afc () =
  Telemetry.enable ();
  Telemetry.reset ();
  let config =
    { Engine.default_config with Engine.budget = 30.0; seed = 1;
      analyze = true }
  in
  ignore (Engine.run ~config (registry_prog "AFC"));
  let skipped = Telemetry.Counter.total tel_skipped in
  check Alcotest.bool
    (Fmt.str "AFC skipped %d dead objectives, expected > 0" skipped)
    true (skipped > 0);
  Telemetry.reset ();
  Telemetry.disable ()

(* --- lint rendering ----------------------------------------------------- *)

let test_lint_lines () =
  check Alcotest.(list string) "clean model renders clean"
    [ "t: clean" ]
    (Lint.to_lines ~model:"t"
       (Lint.run
          (simple ~outputs:[ Ir.output "y" V.tint ]
             Ir.[ assign_out "y" (ci 1) ])));
  let lines = Lint.to_lines ~model:"AFC" (Lint.run (registry_prog "AFC")) in
  check Alcotest.bool "AFC lint mentions A102" true
    (List.exists
       (fun l ->
         String.length l >= 4
         && (let has_sub s sub =
               let n = String.length sub in
               let rec go i =
                 i + n <= String.length s
                 && (String.sub s i n = sub || go (i + 1))
               in
               go 0
             in
             has_sub l "A102"))
       lines)

(* --- octagon domain ----------------------------------------------------- *)

let oct_cfg = { Analyzer.domain = `Octagon }

(* Octagon fixpoints of the registry models, shared across the tests
   below (the analysis is deterministic, so memoizing is safe). *)
let oct_result =
  let tbl = Hashtbl.create 8 in
  fun (e : Models.Registry.entry) ->
    match Hashtbl.find_opt tbl e.Models.Registry.name with
    | Some r -> r
    | None ->
      let r = Analyzer.analyze ~config:oct_cfg (e.Models.Registry.program ()) in
      Hashtbl.replace tbl e.Models.Registry.name r;
      r

(* Soundness: every concretely sampled execution state lies inside the
   octagon-reduced abstract state. *)
let sample_contained (e : Models.Registry.entry) ~seed ~trials ~steps =
  let prog = e.Models.Registry.program () in
  let r = oct_result e in
  let absvals = Array.of_list (List.map snd r.Analyzer.r_state) in
  let h = Slim.Exec.compile prog in
  let rng = Random.State.make [| seed |] in
  let ok = ref true in
  for _ = 1 to trials do
    let st = ref (Slim.Exec.initial_state h) in
    for _ = 1 to steps do
      let inp = Slim.Exec.random_inputs rng h in
      let _, st' = Slim.Exec.run_step h !st inp in
      st := st';
      Array.iteri
        (fun i v ->
          if not (Analysis.Absval.member absvals.(i) v) then ok := false)
        !st
    done
  done;
  !ok

let test_octagon_containment () =
  List.iter
    (fun (e : Models.Registry.entry) ->
      check Alcotest.bool
        (Fmt.str "%s: sampled states contained" e.Models.Registry.name)
        true
        (sample_contained e ~seed:42 ~trials:5 ~steps:30))
    Models.Registry.entries

let prop_octagon_contains =
  let entries = Array.of_list Models.Registry.entries in
  QCheck.Test.make ~name:"octagon fixpoint contains sampled executions"
    ~count:40 QCheck.small_nat (fun seed ->
      sample_contained entries.(seed mod Array.length entries)
        ~seed:(seed + 1000) ~trials:1 ~steps:25)

(* The two domains are both sound, so wherever both decide they must
   agree — checked over every objective of every registry model. *)
let test_octagon_no_contradiction () =
  List.iter
    (fun (e : Models.Registry.entry) ->
      let name = e.Models.Registry.name in
      let si = Verdict.of_result (Analyzer.analyze (e.Models.Registry.program ())) in
      let so = Verdict.of_result (oct_result e) in
      let agree vi vo =
        vi = Verdict.Unknown || vo = Verdict.Unknown || vi = vo
      in
      List.iter2
        (fun (k, vi) (_, vo) ->
          check Alcotest.bool
            (Fmt.str "%s branch %a verdicts agree" name Branch.pp_key k)
            true (agree vi vo))
        si.Verdict.v_branches so.Verdict.v_branches;
      List.iter2
        (fun ((d, i, v), vi) (_, vo) ->
          check Alcotest.bool
            (Fmt.str "%s condition (%d,%d,%b) verdicts agree" name d i v)
            true (agree vi vo))
        si.Verdict.v_conditions so.Verdict.v_conditions;
      List.iter2
        (fun ((d, i), vi) (_, vo) ->
          check Alcotest.bool
            (Fmt.str "%s mcdc (%d,%d) verdicts agree" name d i)
            true (agree vi vo))
        si.Verdict.v_mcdc so.Verdict.v_mcdc)
    Models.Registry.entries

(* Pinned relational win: UTPC's defensive dual-redundancy trip (the
   rolling code is stored twice from the same bus value, so the
   divergence guard is dead by construction).  The octagon derives
   pending_code - pending_chk = 0 and kills decision 4; the interval
   domain sees two independent [0,4095] stores and must stay Unknown. *)
let test_octagon_utpc_win () =
  let prog = registry_prog "UTPC" in
  let si = Verdict.of_program prog in
  let so = Verdict.of_program ~config:oct_cfg prog in
  let vd = Alcotest.testable Verdict.pp ( = ) in
  check vd "interval branch (4, Then) unknown" Verdict.Unknown
    (Verdict.branch si (4, Branch.Then));
  check vd "octagon branch (4, Then) dead" Verdict.Dead
    (Verdict.branch so (4, Branch.Then));
  check vd "interval condition (4,0,true) unknown" Verdict.Unknown
    (Verdict.condition si 4 0 true);
  check vd "octagon condition (4,0,true) dead" Verdict.Dead
    (Verdict.condition so 4 0 true);
  check vd "interval mcdc (4,0) unknown" Verdict.Unknown (Verdict.mcdc si 4 0);
  check vd "octagon mcdc (4,0) dead" Verdict.Dead (Verdict.mcdc so 4 0)

(* --- analysis fingerprint ------------------------------------------------ *)

(* Bit-identity pin for the analyzer: for both domains, every branch,
   condition and MC/DC verdict plus the iteration and widening counts,
   and the octagon domain's stabilized state bounds with floats printed
   as exact hex.  Covers every registry model and the first 50 cases of
   the fuzz campaign with seed 0 (the models the fuzz "analysis" oracle
   judges).  A change to the octagon closure that moves any matrix
   entry shows up here as a moved bound or verdict.  On a mismatch the
   observed text is written next to the test binary as
   [analysis_fingerprint.observed.txt]. *)

let verdict_char = function
  | Verdict.Reachable -> 'R'
  | Verdict.Dead -> 'D'
  | Verdict.Unknown -> 'U'

let rec pp_absval_exact ppf (v : Analysis.Absval.t) =
  match v with
  | Analysis.Absval.Scalar (Solver.Dom.Dbool { can_true; can_false }) ->
    Fmt.pf ppf "b%s%s" (if can_true then "t" else "") (if can_false then "f" else "")
  | Analysis.Absval.Scalar (Solver.Dom.Dint { lo; hi }) -> Fmt.pf ppf "i[%d,%d]" lo hi
  | Analysis.Absval.Scalar (Solver.Dom.Dreal { lo; hi }) -> Fmt.pf ppf "r[%h,%h]" lo hi
  | Analysis.Absval.Vector a ->
    Fmt.pf ppf "{%a}" Fmt.(array ~sep:(any ",") pp_absval_exact) a

let fingerprint_result buf label (r : Analyzer.result) ~state =
  let s = Verdict.of_result r in
  let verdicts l = String.of_seq (Seq.map (fun (_, v) -> verdict_char v) (List.to_seq l)) in
  Buffer.add_string buf
    (Fmt.str "%s it=%d wid=%d b=%s c=%s m=%s\n" label r.Analyzer.r_iterations
       r.Analyzer.r_widenings (verdicts s.Verdict.v_branches)
       (verdicts s.Verdict.v_conditions) (verdicts s.Verdict.v_mcdc));
  if state then
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Fmt.str "  %s %a\n" name pp_absval_exact v))
      r.Analyzer.r_state

let fingerprint_program buf title prog ~oct =
  let r = Analyzer.analyze prog in
  Buffer.add_string buf
    (Fmt.str "== %s\nbranches %a\n" title
       Fmt.(list ~sep:(any ",") Branch.pp_key)
       (List.map fst (Verdict.of_result r).Verdict.v_branches));
  fingerprint_result buf "interval" r ~state:false;
  fingerprint_result buf "octagon" (oct prog) ~state:true

let analysis_fingerprint () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (e : Models.Registry.entry) ->
      fingerprint_program buf e.Models.Registry.name (e.Models.Registry.program ())
        ~oct:(fun _ -> oct_result e))
    Models.Registry.entries;
  for i = 0 to 49 do
    let title = Fmt.str "fuzz seed=0 case=%d" i in
    let model, _, _ = Fuzzer.Campaign.case_gen ~seed:0 ~max_steps:8 i in
    match Fuzzer.Gen.program_of model with
    | prog -> fingerprint_program buf title prog ~oct:(Analyzer.analyze ~config:oct_cfg)
    | exception exn -> Buffer.add_string buf (Fmt.str "== %s\n%s\n" title (Printexc.to_string exn))
  done;
  Buffer.contents buf

let test_analysis_fingerprint () = Golden.check "analysis_fingerprint" (analysis_fingerprint ())

(* --- octagon closure against a dense reference ---------------------------- *)

(* The octagon as first written: full-matrix Floyd-Warshall pivots and
   full strengthening passes.  [Analysis.Octagon] visits only the
   entries that can change, and must agree with this reference on every
   entry and on emptiness, bit for bit, after every operation.  The
   kernels are kept verbatim; [inexact] counts the sums that took
   [add_up]'s round-up branch, so the test can show it exercises it. *)
module Dense_oct = struct
  type t = {
    n : int;
    nn : int;
    m : float array;
    ints : bool array;
    mutable bot : bool;
  }

  let big = 1e15
  let bar i = i lxor 1
  let inexact = ref 0

  let add_up a b =
    let s = a +. b in
    if a -. (s -. b) = 0.0 && b -. (s -. a) = 0.0 then s
    else begin
      incr inexact;
      Float.succ s
    end

  let create ~ints =
    let n = Array.length ints in
    let nn = 2 * n in
    let m = Array.make (max 1 (nn * nn)) infinity in
    for i = 0 to nn - 1 do
      m.(i * nn + i) <- 0.0
    done;
    { n; nn; m; ints; bot = false }

  let copy t = { t with m = Array.copy t.m }

  let equal a b =
    a.n = b.n && a.bot = b.bot && (a.bot || Array.for_all2 ( = ) a.m b.m)

  let check_diag t =
    let nn = t.nn in
    (try
       for i = 0 to nn - 1 do
         if t.m.((i * nn) + i) < 0.0 then raise Exit
       done
     with Exit -> t.bot <- true);
    ()

  (* one strengthening pass: m(i,j) <- min m(i,j) ((m(i,i') + m(j',j)) / 2) *)
  let strengthen t =
    let nn = t.nn and m = t.m in
    for i = 0 to nn - 1 do
      let di = m.((i * nn) + bar i) in
      if di < infinity then
        for j = 0 to nn - 1 do
          let dj = m.((bar j * nn) + j) in
          if dj < infinity then begin
            let v = add_up di dj /. 2.0 in
            if v < m.((i * nn) + j) then m.((i * nn) + j) <- v
          end
        done
    done

  (* integral tightening of the unary edges of int variables *)
  let tighten_ints t =
    let nn = t.nn and m = t.m in
    for k = 0 to t.n - 1 do
      if t.ints.(k) then begin
        let hi = ((2 * k) + 1) * nn + (2 * k) in
        let lo = (2 * k * nn) + (2 * k) + 1 in
        if m.(hi) < infinity then m.(hi) <- 2.0 *. Float.floor (m.(hi) /. 2.0);
        if m.(lo) < infinity then m.(lo) <- 2.0 *. Float.floor (m.(lo) /. 2.0)
      end
    done

  let fw_pivot t k =
    let nn = t.nn and m = t.m in
    for i = 0 to nn - 1 do
      let ik = m.((i * nn) + k) in
      if ik < infinity then
        for j = 0 to nn - 1 do
          let kj = m.((k * nn) + j) in
          if kj < infinity then begin
            let v = add_up ik kj in
            if v < m.((i * nn) + j) then m.((i * nn) + j) <- v
          end
        done
    done

  let close t =
    if not t.bot then begin
      for k = 0 to t.nn - 1 do
        fw_pivot t k
      done;
      strengthen t;
      tighten_ints t;
      strengthen t;
      check_diag t
    end

  let legal c = Float.is_nan c = false && Float.abs c <= 2.0 *. big

  (* store edge (i, j) <= c and its mirror, then re-close around the
     touched indices *)
  let add_edge t i j c =
    if (not t.bot) && legal c then begin
      let nn = t.nn and m = t.m in
      if c < m.((i * nn) + j) then begin
        m.((i * nn) + j) <- c;
        m.((bar j * nn) + bar i) <- c;
        fw_pivot t i;
        fw_pivot t j;
        if i <> bar j then begin
          fw_pivot t (bar i);
          fw_pivot t (bar j)
        end;
        strengthen t;
        tighten_ints t;
        check_diag t
      end
    end

  let add_upper t k c = add_edge t ((2 * k) + 1) (2 * k) (2.0 *. c)
  let add_lower t k c = add_edge t (2 * k) ((2 * k) + 1) (-2.0 *. c)
  let add_diff t a b c = if a <> b then add_edge t (2 * b) (2 * a) c

  let constrain_raw t k ~lo ~hi =
    let nn = t.nn and m = t.m in
    if hi < infinity && legal (2.0 *. hi) then begin
      let e = (((2 * k) + 1) * nn) + (2 * k) in
      if 2.0 *. hi < m.(e) then m.(e) <- 2.0 *. hi
    end;
    if lo > neg_infinity && legal (2.0 *. lo) then begin
      let e = (2 * k * nn) + (2 * k) + 1 in
      if -2.0 *. lo < m.(e) then m.(e) <- -2.0 *. lo
    end

  let forget t k =
    let nn = t.nn and m = t.m in
    let a = 2 * k and b = (2 * k) + 1 in
    for j = 0 to nn - 1 do
      m.((a * nn) + j) <- infinity;
      m.((j * nn) + a) <- infinity;
      m.((b * nn) + j) <- infinity;
      m.((j * nn) + b) <- infinity
    done;
    m.((a * nn) + a) <- 0.0;
    m.((b * nn) + b) <- 0.0

  let shift t k c =
    if (not t.bot) && legal c && c <> 0.0 then begin
      let nn = t.nn and m = t.m in
      let a = 2 * k and b = (2 * k) + 1 in
      for j = 0 to nn - 1 do
        m.((a * nn) + j) <- add_up m.((a * nn) + j) (-.c);
        m.((j * nn) + a) <- add_up m.((j * nn) + a) c;
        m.((b * nn) + j) <- add_up m.((b * nn) + j) c;
        m.((j * nn) + b) <- add_up m.((j * nn) + b) (-.c)
      done;
      m.((a * nn) + a) <- 0.0;
      m.((b * nn) + b) <- 0.0
    end

  let assign_copy t ~dst ~src ~offset =
    if dst <> src then begin
      forget t dst;
      add_diff t dst src offset;
      add_diff t src dst (-.offset)
    end

  let join a b =
    if a.bot then copy b
    else if b.bot then copy a
    else begin
      let r = copy a in
      for i = 0 to (a.nn * a.nn) - 1 do
        if b.m.(i) > r.m.(i) then r.m.(i) <- b.m.(i)
      done;
      r
    end

  let widen old next =
    if old.bot then copy next
    else if next.bot then copy old
    else begin
      let r = copy old in
      for i = 0 to (old.nn * old.nn) - 1 do
        if next.m.(i) > old.m.(i) then r.m.(i) <- infinity
      done;
      r
    end
end

module Oct = Analysis.Octagon

(* One step of a random sequence over two octagons [x] and [y]; the
   target says which one a constraint or transfer acts on.  Acting on
   both keeps [x] and [y] close, so [Join] and [Widen] (which turn [x]
   into [x op y] in place and re-close it) move single entries;
   [Op_join] first moves [x] into a recycled matrix with [copy_into],
   as the analyzer's free list does.  [Op_join_into] joins [y] into [x]
   in place and leaves it unclosed, as the analyzer does when it merges
   branch environments.  [Op_reseat]
   forgets a variable and re-imposes its old bounds, the analyzer's
   forget-then-meet pattern: the unary edges come back unchanged while
   the rest of the variable's rows must be re-derived. *)
type oct_target = To_x | To_y | To_both

type oct_op =
  | Op_upper of oct_target * int * float
  | Op_lower of oct_target * int * float
  | Op_diff of oct_target * int * int * float
  | Op_forget of oct_target * int
  | Op_reseat of oct_target * int
  | Op_shift of oct_target * int * float
  | Op_copy of oct_target * int * int * float
  | Op_join
  | Op_widen
  | Op_raw of oct_target * int * float * float
  | Op_join_into

let pp_oct_op ppf op =
  let w = function To_x -> "x" | To_y -> "y" | To_both -> "xy" in
  match op with
  | Op_upper (t, k, c) -> Fmt.pf ppf "upper(%s,%d,%h)" (w t) k c
  | Op_lower (t, k, c) -> Fmt.pf ppf "lower(%s,%d,%h)" (w t) k c
  | Op_diff (t, a, b, c) -> Fmt.pf ppf "diff(%s,%d,%d,%h)" (w t) a b c
  | Op_forget (t, k) -> Fmt.pf ppf "forget(%s,%d)" (w t) k
  | Op_reseat (t, k) -> Fmt.pf ppf "reseat(%s,%d)" (w t) k
  | Op_shift (t, k, c) -> Fmt.pf ppf "shift(%s,%d,%h)" (w t) k c
  | Op_copy (t, d, s, c) -> Fmt.pf ppf "copy(%s,%d,%d,%h)" (w t) d s c
  | Op_join -> Fmt.pf ppf "join"
  | Op_widen -> Fmt.pf ppf "widen"
  | Op_raw (t, k, lo, hi) -> Fmt.pf ppf "raw(%s,%d,%h,%h)" (w t) k lo hi
  | Op_join_into -> Fmt.pf ppf "join_into"

(* Small integers make contradictions (negative cycles) common; the
   decimal reals take [add_up]'s round-up branch; 1e15 sits at the edge
   of the float-exact window and 3e15 beyond it (ignored as a
   constraint). *)
let gen_oct_const =
  QCheck.Gen.(
    frequency
      [
        (6, map float_of_int (int_range (-6) 6));
        (3, oneofl [ 0.1; -0.3; 12.6; -7.7; 1. /. 3.; 2.5; 1e-3; -0.0 ]);
        (1, oneofl [ 1e15; -1e15; 3e15 ]);
      ])

let gen_oct_case =
  QCheck.Gen.(
    int_range 1 8 >>= fun n ->
    array_repeat n bool >>= fun ints ->
    let var = int_range 0 (n - 1) in
    let tgt = frequencyl [ (2, To_x); (1, To_y); (2, To_both) ] in
    let op =
      frequency
        [
          (4, map3 (fun t k c -> Op_upper (t, k, c)) tgt var gen_oct_const);
          (4, map3 (fun t k c -> Op_lower (t, k, c)) tgt var gen_oct_const);
          ( 6,
            map3
              (fun (t, a) b c -> Op_diff (t, a, b, c))
              (pair tgt var) var gen_oct_const );
          (1, map2 (fun t k -> Op_forget (t, k)) tgt var);
          (2, map2 (fun t k -> Op_reseat (t, k)) tgt var);
          (2, map3 (fun t k c -> Op_shift (t, k, c)) tgt var gen_oct_const);
          ( 2,
            map3
              (fun (t, d) s c -> Op_copy (t, d, s, c))
              (pair tgt var) var gen_oct_const );
          (2, return Op_join);
          (2, return Op_widen);
          ( 2,
            map3
              (fun (t, k) lo hi -> Op_raw (t, k, lo, hi))
              (pair tgt var)
              (oneof [ return neg_infinity; gen_oct_const ])
              (oneof [ return infinity; gen_oct_const ]) );
          (2, return Op_join_into);
        ]
    in
    list_size (int_range 1 40) op >>= fun ops -> return (ints, ops))

(* Every observable entry of [o] equals the reference's, bit for bit:
   [bounds], and [diff_bounds]/[sum_bounds] over every ordered pair
   (with [a = b] included, they read the diagonal and the doubled unary
   edges too). *)
let oct_agrees (o : Oct.t) (d : Dense_oct.t) =
  let bits = Int64.bits_of_float in
  let same2 (a, b) (a', b') = bits a = bits a' && bits b = bits b' in
  let n = d.Dense_oct.n and nn = d.Dense_oct.nn and m = d.Dense_oct.m in
  let ok = ref (Oct.is_bottom o = d.Dense_oct.bot) in
  for a = 0 to n - 1 do
    ok :=
      !ok
      && same2 (Oct.bounds o a)
           ( -.(m.((2 * a * nn) + (2 * a) + 1) /. 2.0),
             m.((((2 * a) + 1) * nn) + (2 * a)) /. 2.0 );
    for b = 0 to n - 1 do
      ok :=
        !ok
        && same2 (Oct.diff_bounds o a b)
             (-.m.((2 * a * nn) + (2 * b)), m.((2 * b * nn) + (2 * a)))
        && same2 (Oct.sum_bounds o a b)
             (-.m.((2 * a * nn) + (2 * b) + 1), m.((((2 * b) + 1) * nn) + (2 * a)))
    done
  done;
  !ok

(* Runs [ops] on both implementations; [Some (step, op)] names the first
   operation after which they disagree, or after which a join or widen
   said [x] rose although the reference did not change (or the other
   way round). *)
let oct_first_mismatch (ints, ops) =
  let x = ref (Oct.create ~ints) and y = ref (Oct.create ~ints) in
  let spare = ref (Oct.create ~ints) in
  let dx = ref (Dense_oct.create ~ints) and dy = ref (Dense_oct.create ~ints) in
  let flags_agree = ref true in
  let lattice rose d' =
    if rose = Dense_oct.equal !dx d' then flags_agree := false;
    dx := d'
  in
  let on t f g =
    if t <> To_y then begin
      f !x;
      g !dx
    end;
    if t <> To_x then begin
      f !y;
      g !dy
    end
  in
  let apply = function
    | Op_upper (t, k, c) -> on t (fun o -> Oct.add_upper o k c) (fun d -> Dense_oct.add_upper d k c)
    | Op_lower (t, k, c) -> on t (fun o -> Oct.add_lower o k c) (fun d -> Dense_oct.add_lower d k c)
    | Op_diff (t, a, b, c) -> on t (fun o -> Oct.add_diff o a b c) (fun d -> Dense_oct.add_diff d a b c)
    | Op_forget (t, k) -> on t (fun o -> Oct.forget o k) (fun d -> Dense_oct.forget d k)
    | Op_reseat (t, k) ->
      (* the bounds are read from the implementation under test, so a
         divergence in them is caught by the step that caused it *)
      let reseat_oct o =
        let lo, hi = Oct.bounds o k in
        Oct.forget o k;
        Oct.meet_interval o k ~lo ~hi
      in
      let reseat_dense d =
        let nn = d.Dense_oct.nn in
        let lo = -.(d.Dense_oct.m.((2 * k * nn) + (2 * k) + 1) /. 2.0)
        and hi = d.Dense_oct.m.((((2 * k) + 1) * nn) + (2 * k)) /. 2.0 in
        Dense_oct.forget d k;
        if hi < infinity then Dense_oct.add_upper d k hi;
        if lo > neg_infinity then Dense_oct.add_lower d k lo
      in
      on t reseat_oct reseat_dense
    | Op_shift (t, k, c) -> on t (fun o -> Oct.shift o k c) (fun d -> Dense_oct.shift d k c)
    | Op_copy (t, dst, src, offset) ->
      on t
        (fun o -> Oct.assign_copy o ~dst ~src ~offset)
        (fun d -> Dense_oct.assign_copy d ~dst ~src ~offset)
    | Op_join ->
      let fresh = !spare in
      Oct.copy_into ~src:!x ~dst:fresh;
      spare := !x;
      x := fresh;
      lattice (Oct.join_inplace !x !y) (Dense_oct.join !dx !dy);
      Oct.close !x;
      Dense_oct.close !dx
    | Op_widen ->
      lattice (Oct.widen !x !y) (Dense_oct.widen !dx !dy);
      Oct.close !x;
      Dense_oct.close !dx
    | Op_raw (t, k, lo, hi) ->
      on t
        (fun o ->
          Oct.constrain_raw o k ~lo ~hi;
          Oct.close o)
        (fun d ->
          Dense_oct.constrain_raw d k ~lo ~hi;
          Dense_oct.close d)
    | Op_join_into -> lattice (Oct.join_inplace !x !y) (Dense_oct.join !dx !dy)
  in
  let rec go step = function
    | [] -> None
    | op :: rest ->
      apply op;
      if !flags_agree && oct_agrees !x !dx && oct_agrees !y !dy then
        go (step + 1) rest
      else Some (step, op)
  in
  go 0 ops

let prop_octagon_dense_reference =
  QCheck.Test.make ~name:"octagon closure is bit-identical to the dense reference"
    ~count:3000
    (QCheck.make
       ~print:(fun (ints, ops) ->
         Fmt.str "ints=%a ops=%a"
           Fmt.(array ~sep:(any ",") bool) ints
           Fmt.(list ~sep:(any "; ") pp_oct_op) ops)
       gen_oct_case)
    (fun case ->
      match oct_first_mismatch case with
      | None -> true
      | Some (step, op) ->
        QCheck.Test.fail_reportf "mismatch after step %d (%a)" step pp_oct_op op)

(* The generator reaches what the property needs to be meaningful:
   emptiness from negative cycles, and sums on [add_up]'s round-up
   branch. *)
let test_dense_reference_reach () =
  let rand = Random.State.make [| 11 |] in
  let cases = QCheck.Gen.generate ~rand ~n:200 gen_oct_case in
  Dense_oct.inexact := 0;
  let bottoms =
    List.length
      (List.filter
         (fun (ints, ops) ->
           let d = Dense_oct.create ~ints in
           List.iter
             (function
               | Op_upper (_, k, c) -> Dense_oct.add_upper d k c
               | Op_lower (_, k, c) -> Dense_oct.add_lower d k c
               | Op_diff (_, a, b, c) -> Dense_oct.add_diff d a b c
               | Op_forget _ | Op_reseat _ | Op_shift _ | Op_copy _ | Op_join
               | Op_widen | Op_raw _ | Op_join_into -> ())
             ops;
           d.Dense_oct.bot)
         cases)
  in
  check Alcotest.bool "some sequences reach a negative cycle" true (bottoms > 0);
  check Alcotest.bool "some sums round up" true (!Dense_oct.inexact > 0)

let tel_restricted_adds = Telemetry.Counter.make "analysis.oct.restricted_adds"
let tel_full_adds = Telemetry.Counter.make "analysis.oct.full_adds"

(* [f ()] with telemetry on; returns its result and the effective adds
   that ran restricted and full pivots meanwhile *)
let count_oct_adds f =
  Telemetry.enable ();
  Telemetry.reset ();
  let r = f () in
  let restricted = Telemetry.Counter.total tel_restricted_adds
  and full = Telemetry.Counter.total tel_full_adds in
  Telemetry.reset ();
  Telemetry.disable ();
  (r, restricted, full)

(* The property exercises both closure paths: adds on a matrix with the
   fixpoint flag run restricted pivots, the others full ones. *)
let test_dense_reference_paths () =
  let rand = Random.State.make [| 11 |] in
  let cases = QCheck.Gen.generate ~rand ~n:200 gen_oct_case in
  let mismatches, restricted, full =
    count_oct_adds (fun () ->
        List.filter (fun c -> oct_first_mismatch c <> None) cases)
  in
  check Alcotest.int "no mismatch" 0 (List.length mismatches);
  check Alcotest.bool "some adds run restricted pivots" true (restricted > 0);
  check Alcotest.bool "some adds run full pivots" true (full > 0)

(* A copy with offset 0 pins [v_src - v_dst <= -0.0]: the stored zero
   is negative, and the restricted pivots must keep its sign wherever
   the dense ones do. *)
let test_oct_copy_signed_zero () =
  let case =
    ( [| false; true |],
      [ Op_upper (To_y, 1, -6.0); Op_copy (To_both, 1, 0, 0.0) ] )
  in
  let mismatch, restricted, full =
    count_oct_adds (fun () -> oct_first_mismatch case)
  in
  check Alcotest.bool "matches the dense reference" true (mismatch = None);
  check Alcotest.(pair int int) "restricted, full adds" (5, 0) (restricted, full)

(* The unary edge of [v0 <= 1/3] does not add exactly to the integer
   ones, so the strengthening pass leaves a bound rounded up, and the
   matrix is closed only up to that rounding: the flag must drop, or
   the restricted pivots of the last add skip an update the dense ones
   make. *)
let test_oct_inexact_strengthening () =
  let case =
    ( [| false; false; false |],
      [
        Op_diff (To_both, 2, 1, -6.0);
        Op_lower (To_x, 2, 3.0);
        Op_upper (To_both, 0, 1. /. 3.);
        Op_diff (To_x, 1, 2, -7.7);
      ] )
  in
  let mismatch, restricted, full =
    count_oct_adds (fun () -> oct_first_mismatch case)
  in
  check Alcotest.bool "matches the dense reference" true (mismatch = None);
  check Alcotest.(pair int int) "restricted, full adds" (5, 1) (restricted, full)

(* Integral tightening after an add lowers a unary edge without
   re-closing: [v1 - v0 <= 0] and [v0 <= 2.5] with [v0] int leave
   [v0 <= 2] but [v1 <= 2.5].  The flag is off, so the next add runs
   full pivots, until a [close] derives [v1 <= 2] and turns it back on. *)
let test_oct_tighten_reopens () =
  let ints = [| true; false |] in
  let o = Oct.create ~ints and d = Dense_oct.create ~ints in
  let step name f g =
    let (), restricted, full = count_oct_adds (fun () -> f o) in
    g d;
    check Alcotest.bool (name ^ " matches the dense reference") true
      (oct_agrees o d);
    (restricted, full)
  in
  let paths = Alcotest.(pair int int) in
  let bounds = Alcotest.(pair (float 0.0) (float 0.0)) in
  check paths "v1 - v0 <= 0 (restricted)" (1, 0)
    (step "diff" (fun o -> Oct.add_diff o 1 0 0.0) (fun d ->
         Dense_oct.add_diff d 1 0 0.0));
  check paths "v0 <= 2.5 (restricted)" (1, 0)
    (step "upper" (fun o -> Oct.add_upper o 0 2.5) (fun d ->
         Dense_oct.add_upper d 0 2.5));
  check bounds "v0 tightened" (neg_infinity, 2.0) (Oct.bounds o 0);
  check bounds "v1 not re-closed" (neg_infinity, 2.5) (Oct.bounds o 1);
  check paths "v1 >= -10 (full)" (0, 1)
    (step "lower" (fun o -> Oct.add_lower o 1 (-10.0)) (fun d ->
         Dense_oct.add_lower d 1 (-10.0)));
  check bounds "v1 still 2.5" (-10.0, 2.5) (Oct.bounds o 1);
  ignore (step "close" Oct.close Dense_oct.close);
  check bounds "close derives v1 <= 2" (-10.0, 2.0) (Oct.bounds o 1);
  check paths "v0 >= -3 (restricted)" (1, 0)
    (step "lower" (fun o -> Oct.add_lower o 0 (-3.0)) (fun d ->
         Dense_oct.add_lower d 0 (-3.0)))

(* --- octagon arms: refinement in place, matrices reused ------------------ *)

(* The first three programs below refute an arm through a relation only
   the octagon holds: the interval domain keeps the arm, so the two
   domains' branch verdicts and state bounds differ exactly there.  [outcome] reads the
   verdicts of [keys] and the state bounds (floats as [%h]). *)
let outcome config prog keys =
  let r = Analyzer.analyze ~config prog in
  let s = Verdict.of_result r in
  ( String.of_seq (List.to_seq (List.map (fun k -> verdict_char (Verdict.branch s k)) keys)),
    List.map (fun (n, v) -> Fmt.str "%s %a" n pp_absval_exact v) r.Analyzer.r_state )

let check_outcome prog keys ~interval ~octagon =
  let o = Alcotest.(pair string (list string)) in
  check o "interval" interval (outcome Analyzer.default_config prog keys);
  check o "octagon" octagon (outcome oct_cfg prog keys)

let b_c = [ Ir.input "b" (V.tint_range 0 10); Ir.input "c" (V.tint_range 0 10) ]
let real_r = Ir.state "r" V.treal (V.Real 0.0)

(* [a = b - 1]; decision 0 branches on [guard]; [sc := c] shows whether
   the refuted arm's interval narrowing leaked into the merge, and
   decision 1 ([a < b], true only relationally) whether the octagon
   survived it. *)
let refuted_arm_prog guard then_ else_ =
  simple ~inputs:b_c
    ~locals:[ Ir.local "a" V.tint ]
    ~states:[ real_r; Ir.state "sc" V.tint (V.Int 0) ]
    Ir.
      [
        assign "a" (iv "b" -: ci 1);
        if_ guard then_ else_;
        assign_state "sc" (iv "c");
        if_ (lv "a" <: iv "b") [] [ assign_state "r" (cr 4.0) ];
      ]

let if_keys = Branch.[ (0, Then); (0, Else); (1, Then); (1, Else) ]

(* The else arm needs [a < c] and [c < b], so [b - a >= 2] against
   [b - a = 1]: it is refuted on [env] itself, after the then arm took
   its copy, and the merge takes the then arm whole. *)
let test_else_refuted_in_place () =
  let prog =
    refuted_arm_prog
      Ir.((lv "a" >=: iv "c") ||: (iv "c" >=: iv "b"))
      Ir.[ assign_state "r" (cr 0.25) ]
      Ir.[ assign_state "r" (cr 8.0) ]
  in
  check_outcome prog if_keys
    ~interval:("UUUU", [ "r r[0x0p+0,0x1p+3]"; "sc i[0,10]" ])
    ~octagon:("UDRD", [ "r r[0x0p+0,0x1p-2]"; "sc i[0,10]" ])

(* The same contradiction on the then side: the else arm keeps its copy
   and the merge takes it. *)
let test_then_refuted () =
  let prog =
    refuted_arm_prog
      Ir.((lv "a" <: iv "c") &&: (iv "c" <: iv "b"))
      Ir.[ assign_state "r" (cr 8.0) ]
      Ir.[ assign_state "r" (cr 0.25) ]
  in
  check_outcome prog if_keys
    ~interval:("UUUU", [ "r r[0x0p+0,0x1p+3]"; "sc i[0,10]" ])
    ~octagon:("DURD", [ "r r[0x0p+0,0x1p-2]"; "sc i[0,10]" ])

(* Under [c < b] with [a = b], the case [a = 0] needs [c < 0]; the
   interval of [a] is still [0, 10]. *)
let test_switch_case_refuted () =
  let prog =
    simple ~inputs:b_c
      ~locals:[ Ir.local "a" V.tint ]
      ~states:[ real_r ]
      Ir.
        [
          assign "a" (iv "b");
          if_ (iv "c" <: iv "b")
            [
              switch (lv "a")
                [ (0, [ assign_state "r" (cr 8.0) ]); (1, [ assign_state "r" (cr 0.25) ]) ]
                [ assign_state "r" (cr 0.5) ];
            ]
            [];
        ]
  in
  check_outcome prog
    Branch.[ (0, Then); (0, Else); (1, Case 0); (1, Case 1); (1, Default) ]
    ~interval:("UUUUU", [ "r r[0x0p+0,0x1p+3]" ])
    ~octagon:("UUDUU", [ "r r[0x0p+0,0x1p-1]" ])

(* Decision 1 sits in an arm the intervals already rule out, so it is
   walked without the octagon that alone could decide its guard: it is
   still recorded [Never] with every objective dead, and reports no
   constant guard.  Decision 2 is the same guard on a live path. *)
let test_never_arm_without_octagon () =
  let prog =
    simple
      ~inputs:[ Ir.input "b" (V.tint_range 0 10) ]
      ~locals:[ Ir.local "a" V.tint ]
      ~states:[ real_r ]
      Ir.
        [
          assign "a" (iv "b");
          if_ (iv "b" >: ci 20)
            [
              if_ (lv "a" <=: iv "b")
                [ assign_state "r" (cr 0.25) ]
                [ assign_state "r" (cr 8.0) ];
            ]
            [];
          if_ (lv "a" <=: iv "b") [] [ assign_state "r" (cr 0.5) ];
        ]
  in
  let keys = Branch.[ (0, Then); (0, Else); (1, Then); (1, Else); (2, Then); (2, Else) ] in
  check_outcome prog keys
    ~interval:("DRDDUU", [ "r r[0x0p+0,0x1p-1]" ])
    ~octagon:("DRDDRD", [ "r r[0x0p+0,0x0p+0]" ]);
  let r = Analyzer.analyze ~config:oct_cfg prog in
  let s = Verdict.of_result r in
  let vd = Alcotest.testable Verdict.pp ( = ) in
  check (Alcotest.list vd) "decision 1 conditions and MC/DC dead"
    Verdict.[ Dead; Dead; Dead ]
    [ Verdict.condition s 1 0 true; Verdict.condition s 1 0 false; Verdict.mcdc s 1 0 ];
  check Alcotest.bool "decision 1 recorded Never" true
    (match Analyzer.guard_fact r 1 with
     | Some g -> g.Analyzer.g_reach = Analyzer.Never
     | None -> false);
  check Alcotest.(list string) "constant guards of decisions 0 and 2 only"
    [ "A102 decision 0 guard is always false"; "A101 decision 2 guard is always true" ]
    (List.map
       (fun (d : Diag.t) -> Fmt.str "%s %s" (Diag.code_id d.Diag.d_code) d.Diag.d_msg)
       r.Analyzer.r_diags);
  (* an unbound read in a [Never] arm still raises *)
  let ghost =
    Ir.renumber_decisions
      {
        Ir.name = "ghost";
        inputs = [ Ir.input "b" (V.tint_range 0 10) ];
        outputs = [ Ir.output "y" V.tint ];
        states = [];
        locals = [];
        body = Ir.[ if_ (iv "b" >: ci 20) [ assign_out "y" (lv "ghost") ] [] ];
      }
  in
  List.iter
    (fun config ->
      match Analyzer.analyze ~config ghost with
      | _ -> Alcotest.fail "unbound read in a Never arm did not raise"
      | exception V.Type_error _ -> ())
    [ Analyzer.default_config; oct_cfg ]

let tel_matrices = Telemetry.Counter.make "analysis.oct.matrices"

(* A mode state cycling through a switch whose arms nest two ifs: the
   analysis needs the state octagon, the pass environment, the join of
   the arms walked so far, the current arm and one then-arm copy per
   nested if -- nesting depth (3) + 3 matrices, over every pass. *)
let test_matrices_bounded () =
  let prog =
    simple
      ~inputs:[ Ir.input "x" (V.tint_range 0 10) ]
      ~states:[ Ir.state "mode" V.tint (V.Int 0) ]
      Ir.
        [
          switch (sv "mode")
            [
              ( 0,
                [
                  if_ (iv "x" >: ci 5)
                    [ if_ (iv "x" >: ci 8) [ assign_state "mode" (ci 1) ] [ assign_state "mode" (ci 2) ] ]
                    [];
                ] );
              ( 1,
                [
                  if_ (iv "x" <: ci 3)
                    [ if_ (iv "x" <: ci 1) [ assign_state "mode" (ci 0) ] [ assign_state "mode" (ci 2) ] ]
                    [];
                ] );
            ]
            [ assign_state "mode" (ci 0) ];
        ]
  in
  Telemetry.enable ();
  Telemetry.reset ();
  let r = Analyzer.analyze ~config:oct_cfg prog in
  let matrices = Telemetry.Counter.total tel_matrices in
  Telemetry.reset ();
  Telemetry.disable ();
  check Alcotest.int "iterations" 3 r.Analyzer.r_iterations;
  check Alcotest.(list string) "state" [ "mode i[0,2]" ]
    (snd (outcome oct_cfg prog []));
  check Alcotest.bool (Fmt.str "%d matrices <= 3 + 3" matrices) true (matrices <= 6)

(* --- engine: verdict priority ------------------------------------------- *)

(* x drives a saturating counter; the interesting decision needs both
   count >= 5 (multi-step) and the magic key input, so the random-first
   phase covers the easy objectives while the key-dependent ones need
   the solver — and early tree nodes (count small) prove one-step Unsat
   statically, so the prune fires on a run that still saturates. *)
let vp_demo =
  let open Ir in
  let prog =
    renumber_decisions
      {
        name = "vp_demo";
        inputs =
          [ input "x" (V.tint_range 0 3); input "k" (V.tint_range 0 2000) ];
        outputs = [ output "hi" V.Tbool; output "lo" V.Tbool ];
        states = [ state "count" (V.tint_range 0 50) (V.Int 0) ];
        locals = [];
        body =
          [
            assign_out "hi" (cb false);
            assign_out "lo" (cb false);
            assign_state "count" (Binop (Min, ci 50, sv "count" +: iv "x"));
            if_
              (sv "count" >=: ci 5 &&: (iv "k" =: ci 999))
              [ assign_out "hi" (cb true) ]
              [];
            if_ (ci 1 >: ci 0) [ assign_out "lo" (cb true) ] [];
          ];
      }
  in
  type_check prog;
  prog

let tel_pruned = Telemetry.Counter.make "engine.solves_pruned_static"
let tel_attempts = Telemetry.Counter.make "engine.solve_attempts"

let test_engine_verdict_priority () =
  Telemetry.enable ();
  Telemetry.reset ();
  let cfg vp =
    {
      Engine.default_config with
      Engine.budget = 120.0;
      seed = 5;
      analyze = true;
      random_first = true;
      verdict_priority = vp;
    }
  in
  let off = Engine.run ~config:(cfg false) vp_demo in
  let attempts_off = Telemetry.Counter.total tel_attempts in
  check Alcotest.int "no prune with the flag off" 0
    (Telemetry.Counter.total tel_pruned);
  Telemetry.reset ();
  let on = Engine.run ~config:(cfg true) vp_demo in
  let attempts_on = Telemetry.Counter.total tel_attempts in
  let pruned = Telemetry.Counter.total tel_pruned in
  check Alcotest.bool "off run saturates" true
    (off.Engine.r_stop = Engine.Full_coverage);
  check Alcotest.bool "on run saturates" true
    (on.Engine.r_stop = Engine.Full_coverage);
  check Alcotest.bool "static prune fired" true (pruned > 0);
  (* every pruned solve was a real Unsat attempt of the off run *)
  check Alcotest.int "attempts conserved" attempts_off (attempts_on + pruned);
  (* the pinned contract: testcase output is identical with the flag on
     or off (found_at excluded — pruned solves charge no virtual time) *)
  check Alcotest.bool "identical testcases" true
    (steps_equal (tc_essence off) (tc_essence on));
  Telemetry.reset ();
  Telemetry.disable ()

let () =
  Alcotest.run "analysis"
    [
      ( "registry goldens",
        [
          Alcotest.test_case "AFC dead branch" `Quick test_afc_dead;
          Alcotest.test_case "NICProtocol dead transition" `Quick test_nic_dead;
          Alcotest.test_case "LEDLC dead defaults" `Quick test_ledlc_dead;
          Alcotest.test_case "TCP clean" `Quick test_tcp_clean;
          Alcotest.test_case "all models total" `Quick test_registry_total;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "constant guards" `Quick test_diag_const_guards;
          Alcotest.test_case "switch reachability" `Quick test_diag_switch;
          Alcotest.test_case "local lifetimes" `Quick test_diag_locals;
          Alcotest.test_case "index ranges" `Quick test_diag_index;
          Alcotest.test_case "lint rendering" `Quick test_lint_lines;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "widening terminates soundly" `Quick
            test_widening_sound;
          Alcotest.test_case "duplicate declarations" `Quick
            test_duplicate_declarations;
          Alcotest.test_case "real in int cell (seed 1 case 156)" `Quick
            (test_real_in_int_cell 156 (0, Branch.Case 0));
          Alcotest.test_case "real in int cell (seed 1 case 190)" `Quick
            (test_real_in_int_cell 190 (0, Branch.Case 1));
        ] );
      ( "engine skip",
        [
          Alcotest.test_case "dead objective justified+skipped" `Quick
            test_engine_skip;
          Alcotest.test_case "AFC dead objectives skipped" `Quick
            test_engine_skip_afc;
        ] );
      ( "octagon",
        [
          Alcotest.test_case "sampled states contained" `Quick
            test_octagon_containment;
          Alcotest.test_case "never contradicts interval" `Quick
            test_octagon_no_contradiction;
          Alcotest.test_case "UTPC dual-redundancy win" `Quick
            test_octagon_utpc_win;
          QCheck_alcotest.to_alcotest prop_octagon_contains;
          Alcotest.test_case "analysis fingerprint" `Quick
            test_analysis_fingerprint;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 15 |])
            prop_octagon_dense_reference;
          Alcotest.test_case "dense reference reaches bottom and round-up"
            `Quick test_dense_reference_reach;
          Alcotest.test_case "dense reference reaches both pivot paths"
            `Quick test_dense_reference_paths;
          Alcotest.test_case "copy keeps the signed zero" `Quick
            test_oct_copy_signed_zero;
          Alcotest.test_case "tightening reopens the matrix" `Quick
            test_oct_tighten_reopens;
          Alcotest.test_case "inexact strengthening drops the flag" `Quick
            test_oct_inexact_strengthening;
        ] );
      ( "octagon arms",
        [
          Alcotest.test_case "else refuted in place" `Quick
            test_else_refuted_in_place;
          Alcotest.test_case "then refuted" `Quick test_then_refuted;
          Alcotest.test_case "switch case refuted" `Quick test_switch_case_refuted;
          Alcotest.test_case "never arm walked without the octagon" `Quick
            test_never_arm_without_octagon;
          Alcotest.test_case "matrices bounded by nesting" `Quick
            test_matrices_bounded;
        ] );
      ( "engine verdicts",
        [
          Alcotest.test_case "verdict priority is output-identical" `Quick
            test_engine_verdict_priority;
        ] );
    ]
