open Slim

type verdict = Pass | Fail of string

let all = [ "exec"; "coverage"; "symexec"; "solver"; "analysis"; "spec" ]

let fail fmt = Fmt.kstr (fun m -> Fail m) fmt

let event_equal (a : Exec.event) (b : Exec.event) =
  match (a, b) with
  | Exec.Branch_hit k1, Exec.Branch_hit k2 -> Branch.equal_key k1 k2
  | Exec.Cond_vector c1, Exec.Cond_vector c2 ->
    c1.id = c2.id && c1.outcome = c2.outcome && c1.vector = c2.vector
  | _ -> false

let collect events e = events := e :: !events

(* ------------------------------------------------------------------ *)
(* Oracle 1: slot-compiled Exec vs the reference interpreter           *)

let exec_diff prog steps =
  let ex = Exec.handle prog in
  let smap_equal = Exec.Smap.equal Value.equal in
  let rec go k slot_state map_state = function
    | [] -> Pass
    | row :: rest -> (
      let ev_fast = ref [] and ev_ref = ref [] in
      let fast =
        try
          Ok
            (Exec.run_step ~on_event:(collect ev_fast) ex slot_state
               (Exec.inputs_of_list ex row))
        with Exec.Eval_error m -> Error m
      in
      let reference =
        try
          Ok
            (Interp.run_step_reference ~on_event:(collect ev_ref) prog map_state
               (Interp.inputs_of_list row))
        with Exec.Eval_error m -> Error m
      in
      match (fast, reference) with
      | Error m1, Error m2 ->
        (* both paths must stop with the same error *)
        if m1 = m2 then Pass
        else fail "step %d: error messages differ: %S vs %S" k m1 m2
      | Error m, Ok _ -> fail "step %d: exec raised %S, reference succeeded" k m
      | Ok _, Error m -> fail "step %d: reference raised %S, exec succeeded" k m
      | Ok (out_fast, st_fast), Ok (out_ref, st_ref) ->
        if not (smap_equal (Exec.smap_of_outputs ex out_fast) out_ref) then
          fail "step %d: outputs differ: %a vs %a" k (Exec.pp_outputs ex)
            out_fast Interp.pp_snapshot out_ref
        else if not (smap_equal (Exec.smap_of_state ex st_fast) st_ref) then
          fail "step %d: states differ: %a vs %a" k (Exec.pp_state ex) st_fast
            Interp.pp_snapshot st_ref
        else if
          not (List.equal event_equal (List.rev !ev_fast) (List.rev !ev_ref))
        then fail "step %d: event streams differ" k
        else if
          (* slot <-> smap state bridge must round-trip *)
          not
            (Exec.state_equal st_fast
               (Exec.state_of_smap ex (Exec.smap_of_state ex st_fast)))
        then fail "step %d: state smap round-trip not identity" k
        else if Exec.state_hash st_fast <> Exec.state_hash (Array.map Value.copy st_fast)
        then fail "step %d: state hash not structural" k
        else go (k + 1) st_fast st_ref rest)
  in
  go 0 (Exec.initial_state ex) (Interp.initial_state prog) steps

(* ------------------------------------------------------------------ *)
(* Oracle 2: coverage-tracker invariants                               *)

let coverage prog steps =
  let ex = Exec.handle prog in
  let open Coverage in
  let tr = Tracker.create prog in
  let branch_keys =
    List.fold_left
      (fun s (b : Branch.t) -> Branch.Key_set.add b.Branch.key s)
      Branch.Key_set.empty (Exec.branches ex)
  in
  let total_branches = Branch.Key_set.cardinal branch_keys in
  let recorded = ref [] in
  let check_ratio name (r : Tracker.ratio) =
    if r.covered < 0 || r.covered > r.total then
      Some (Fmt.str "%s ratio out of bounds: %d/%d" name r.covered r.total)
    else None
  in
  let invariants prev_progress =
    let covered = Tracker.covered_branches tr in
    if not (Branch.Key_set.subset covered branch_keys) then
      Some "covered branches outside the program's branch set"
    else if Tracker.progress tr < prev_progress then Some "progress decreased"
    else if (Tracker.decision tr).covered <> Branch.Key_set.cardinal covered
    then Some "decision.covered <> |covered_branches|"
    else if (Tracker.decision tr).total <> total_branches then
      Some "decision.total <> |branches|"
    else
      match
        List.find_map (fun (n, r) -> check_ratio n r)
          [
            ("decision", Tracker.decision tr);
            ("condition", Tracker.condition tr);
            ("mcdc", Tracker.mcdc tr);
          ]
      with
      | Some m -> Some m
      | None ->
        if
          Branch.Key_set.exists
            (fun k -> not (Tracker.is_branch_covered tr k))
            covered
        then Some "is_branch_covered disagrees with covered_branches"
        else None
  in
  let rec go k st = function
    | [] -> None
    | row :: rest -> (
      let prev_progress = Tracker.progress tr in
      let before = Tracker.covered_branches tr in
      let mark = Tracker.mark tr in
      let step_events = ref [] in
      let observe e =
        collect step_events e;
        Tracker.observe tr e
      in
      match Exec.run_step ~on_event:observe ex st (Exec.inputs_of_list ex row) with
      | exception Exec.Eval_error _ -> None
      | _, st' -> (
        recorded := List.rev_append !step_events !recorded;
        match invariants prev_progress with
        | Some m -> Some (Fmt.str "step %d: %s" k m)
        | None when
            not
              (Branch.Key_set.equal (Tracker.fresh_since tr mark)
                 (Branch.Key_set.diff (Tracker.covered_branches tr) before)) ->
          Some (Fmt.str "step %d: fresh_since disagrees with the covered-set diff" k)
        | None ->
          (* re-observing the same events must add nothing *)
          let p = Tracker.progress tr in
          List.iter (Tracker.observe tr) (List.rev !step_events);
          if Tracker.progress tr <> p then
            Some (Fmt.str "step %d: re-observation bumped progress" k)
          else go (k + 1) st' rest))
  in
  match go 0 (Exec.initial_state ex) steps with
  | Some m -> Fail m
  | None -> (
    let events = List.rev !recorded in
    (* a fresh tracker replaying the recorded stream must agree *)
    let tr2 = Tracker.create prog in
    List.iter (Tracker.observe tr2) events;
    let same_ratio (a : Tracker.ratio) (b : Tracker.ratio) =
      a.covered = b.covered && a.total = b.total
    in
    if
      not
        (Branch.Key_set.equal
           (Tracker.covered_branches tr)
           (Tracker.covered_branches tr2))
    then Fail "replayed tracker covers a different branch set"
    else if not (same_ratio (Tracker.decision tr) (Tracker.decision tr2)) then
      Fail "replayed tracker: decision ratio differs"
    else if not (same_ratio (Tracker.condition tr) (Tracker.condition tr2)) then
      Fail "replayed tracker: condition ratio differs"
    else if not (same_ratio (Tracker.mcdc tr) (Tracker.mcdc tr2)) then
      Fail "replayed tracker: MCDC ratio differs"
    else if Tracker.progress tr <> Tracker.progress tr2 then
      Fail "replayed tracker: progress stamp differs"
    else
      (* a copy must be independent of its original *)
      let snap = Tracker.progress tr in
      let cp = Tracker.copy tr in
      List.iter (Tracker.observe cp) events;
      if Tracker.progress tr <> snap then
        Fail "observing a copy mutated the original"
      else Pass)

(* ------------------------------------------------------------------ *)
(* Shared helpers for the solving oracles                              *)

let visited_states ex steps =
  let rec go st acc = function
    | [] -> st :: acc
    | row :: rest -> (
      match Exec.run_step ex st (Exec.inputs_of_list ex row) with
      | _, st' -> go st' (st :: acc) rest
      | exception Exec.Eval_error _ -> st :: acc)
  in
  Array.of_list (List.rev (go (Exec.initial_state ex) [] steps))

let random_row rng (prog : Ir.program) =
  List.map (fun (v : Ir.var) -> (v.Ir.name, Gen.gen_value rng v.Ir.ty)) prog.Ir.inputs

let replay_events ex state inputs =
  let evs = ref [] in
  (try ignore (Exec.run_step ~on_event:(collect evs) ex state inputs)
   with Exec.Eval_error _ -> ());
  List.rev !evs

let branch_hit events key =
  List.exists
    (function Exec.Branch_hit k -> Branch.equal_key k key | _ -> false)
    events

(* deterministically pick at most [n] elements *)
let pick_at_most rng n l =
  let arr = Array.of_list l in
  let len = Array.length arr in
  if len <= n then l
  else
    List.init n (fun _ -> arr.(Util.Splitmix.int rng len))
    |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Oracle 3: symexec path-predicate soundness                          *)

let symexec ~seed ?(max_targets = 6) prog steps =
  let ex = Exec.handle prog in
  let rng = Util.Splitmix.create (seed lxor 0x53594d) in
  let states = visited_states ex steps in
  let pick_state () = states.(Util.Splitmix.int rng (Array.length states)) in
  let config =
    {
      Symexec.Explore.max_paths = 64;
      node_budget = 4000;
      rng_seed = seed;
      hc4_memo = true;
    }
  in
  let memo = Symexec.Explore.create_memo () in
  let refute_budget = 20 in
  let check_branch key =
    let state = pick_state () in
    match
      Symexec.Explore.solve_target ~config ~memo prog ~state
        ~target:(Symexec.Explore.Branch_target key)
    with
    | (Symexec.Explore.Sat [ inputs ], _) ->
      let events = replay_events ex state inputs in
      let chain = Exec.branch_chain ex key in
      List.find_map
        (fun (d, oc) ->
          if branch_hit events (d, oc) then None
          else
            Some
              (Fmt.str
                 "branch %a: Sat inputs do not hit required (%d, %a) on replay"
                 Branch.pp_key key d Branch.pp_outcome oc))
        chain
    | (Symexec.Explore.Sat l, _) ->
      Some
        (Fmt.str "branch %a: one-step solve returned %d input steps"
           Branch.pp_key key (List.length l))
    | (Symexec.Explore.Unsat, _) ->
      (* soundness spot-check: no random input may reach the branch *)
      let rec try_refute i =
        if i >= refute_budget then None
        else
          let inputs = Exec.inputs_of_list ex (random_row rng prog) in
          if branch_hit (replay_events ex state inputs) key then
            Some
              (Fmt.str "branch %a: Unsat but a random input reaches it"
                 Branch.pp_key key)
          else try_refute (i + 1)
      in
      try_refute 0
    | (Symexec.Explore.Unknown, _) -> None
  in
  let check_condition (decision, natoms) =
    let atom = Util.Splitmix.int rng natoms in
    let value = Util.Splitmix.bool rng in
    let state = pick_state () in
    let vectors_of events =
      List.filter_map
        (function
          | Exec.Cond_vector { id; vector; _ } when id = decision -> Some vector
          | _ -> None)
        events
    in
    let observed_with vecs =
      List.exists
        (fun v -> atom < Array.length v && v.(atom) = value)
        vecs
    in
    match
      Symexec.Explore.solve_target ~config ~memo prog ~state
        ~target:(Symexec.Explore.Condition_target { decision; atom; value })
    with
    | (Symexec.Explore.Sat [ inputs ], _) ->
      let vecs = vectors_of (replay_events ex state inputs) in
      if observed_with vecs then None
      else
        Some
          (Fmt.str
             "condition (%d,%d)=%b: Sat inputs do not produce the vector on \
              replay"
             decision atom value)
    | (Symexec.Explore.Sat l, _) ->
      Some
        (Fmt.str "condition (%d,%d): one-step solve returned %d input steps"
           decision atom (List.length l))
    | (Symexec.Explore.Unsat, _) ->
      let rec try_refute i =
        if i >= refute_budget then None
        else
          let inputs = Exec.inputs_of_list ex (random_row rng prog) in
          if observed_with (vectors_of (replay_events ex state inputs)) then
            Some
              (Fmt.str "condition (%d,%d)=%b: Unsat but concretely observed"
                 decision atom value)
          else try_refute (i + 1)
      in
      try_refute 0
    | (Symexec.Explore.Unknown, _) -> None
  in
  let branch_targets =
    pick_at_most rng max_targets
      (List.map (fun (b : Branch.t) -> b.Branch.key) (Exec.branches ex))
  in
  let condition_targets =
    pick_at_most rng (max 1 (max_targets / 2))
      (List.filter_map
         (fun pos ->
           match Exec.atom_count ex pos with
           | 0 -> None
           | n -> Some (Exec.decision_id ex pos, n))
         (List.init (Exec.n_decisions ex) Fun.id))
  in
  match
    List.find_map check_branch branch_targets
  with
  | Some m -> Fail m
  | None -> (
    match List.find_map check_condition condition_targets with
    | Some m -> Fail m
    | None -> Pass)

(* ------------------------------------------------------------------ *)
(* Oracle 4: CSP solver verified-solution soundness                    *)

(* Random constraint problems over the program's (scalar) input
   variables: heavy on Mod/Abs/Min/Max around zero so the HC4
   projections get exercised on their awkward domains. *)

let solver ~seed ?(max_problems = 5) prog steps =
  ignore steps;
  let module T = Solver.Term in
  let rng = Util.Splitmix.create (seed lxor 0x501e3) in
  let scalar_vars =
    List.filter_map
      (fun (v : Ir.var) ->
        match v.Ir.ty with
        | Value.Tbool | Value.Tint _ | Value.Treal _ -> Some (v.Ir.name, v.Ir.ty)
        | Value.Tvec _ -> None)
      prog.Ir.inputs
  in
  if scalar_vars = [] then Pass
  else begin
    let num_vars =
      List.filter (fun (_, ty) -> ty <> Value.Tbool) scalar_vars
    in
    let bool_vars = List.filter (fun (_, ty) -> ty = Value.Tbool) scalar_vars in
    let rec gen_num depth =
      let tag =
        Util.Splitmix.weighted rng
          [
            ((if num_vars <> [] then 4 else 0), `Var);
            (3, `Const);
            ((if depth > 0 then 3 else 0), `Add);
            ((if depth > 0 then 2 else 0), `Sub);
            ((if depth > 0 then 1 else 0), `Mul);
            ((if depth > 0 then 1 else 0), `Div);
            ((if depth > 0 then 3 else 0), `Mod);
            ((if depth > 0 then 2 else 0), `Min);
            ((if depth > 0 then 2 else 0), `Max);
            ((if depth > 0 then 2 else 0), `Abs);
            ((if depth > 0 then 1 else 0), `Neg);
          ]
      in
      match tag with
      | `Var -> T.var (fst (Util.Splitmix.choose rng num_vars))
      | `Const ->
        if Util.Splitmix.bool rng then T.cint (Util.Splitmix.int_in rng (-8) 8)
        else T.creal (float_of_int (Util.Splitmix.int_in rng (-4) 4) /. 2.)
      | `Add -> T.binop Ir.Add (gen_num (depth - 1)) (gen_num (depth - 1))
      | `Sub -> T.binop Ir.Sub (gen_num (depth - 1)) (gen_num (depth - 1))
      | `Mul -> T.binop Ir.Mul (gen_num (depth - 1)) (gen_num (depth - 1))
      | `Div -> T.binop Ir.Div (gen_num (depth - 1)) (gen_num (depth - 1))
      | `Mod -> T.binop Ir.Mod (gen_num (depth - 1)) (gen_num (depth - 1))
      | `Min -> T.binop Ir.Min (gen_num (depth - 1)) (gen_num (depth - 1))
      | `Max -> T.binop Ir.Max (gen_num (depth - 1)) (gen_num (depth - 1))
      | `Abs -> T.unop Ir.Abs_op (gen_num (depth - 1))
      | `Neg -> T.unop Ir.Neg (gen_num (depth - 1))
    in
    let rec gen_pred depth =
      let tag =
        Util.Splitmix.weighted rng
          [
            (5, `Cmp);
            ((if bool_vars <> [] then 2 else 0), `Bvar);
            ((if depth > 0 then 2 else 0), `And);
            ((if depth > 0 then 2 else 0), `Or);
            ((if depth > 0 then 1 else 0), `Not);
          ]
      in
      match tag with
      | `Cmp ->
        let op =
          Util.Splitmix.choose rng [ Ir.Eq; Ir.Ne; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge ]
        in
        T.cmp op (gen_num 2) (gen_num 2)
      | `Bvar -> T.var (fst (Util.Splitmix.choose rng bool_vars))
      | `And -> T.and_ (gen_pred (depth - 1)) (gen_pred (depth - 1))
      | `Or -> T.or_ (gen_pred (depth - 1)) (gen_pred (depth - 1))
      | `Not -> T.not_ (gen_pred (depth - 1))
    in
    let eval_with lookup t =
      match Term_eval.eval lookup t with
      | Value.Bool b -> b
      | _ -> false
      | exception Value.Type_error _ -> false
    in
    let rec run_problem i =
      if i >= max_problems then Pass
      else begin
        let constraint_ = gen_pred 2 in
        let problem =
          { Solver.Csp.p_vars = scalar_vars; p_constraint = constraint_ }
        in
        let result, _ =
          Solver.Csp.solve ~node_budget:3000
            ~rng:(Random.State.make [| seed; i |])
            problem
        in
        match result with
        | Solver.Csp.Sat assignment ->
          let lookup name =
            match Solver.Csp.Smap.find_opt name assignment with
            | Some v -> v
            | None -> Value.default_of_ty (List.assoc name scalar_vars)
          in
          if eval_with lookup constraint_ then run_problem (i + 1)
          else
            fail "problem %d: Sat assignment %a does not satisfy %a" i
              Solver.Csp.pp_result result T.pp constraint_
        | Solver.Csp.Unsat ->
          (* witness search: 40 random in-domain assignments *)
          let rec refute j =
            if j >= 40 then run_problem (i + 1)
            else
              let assignment =
                List.map (fun (n, ty) -> (n, Gen.gen_value rng ty)) scalar_vars
              in
              if eval_with (fun n -> List.assoc n assignment) constraint_ then
                fail "problem %d: Unsat refuted by witness {%a} for %a" i
                  Fmt.(
                    list ~sep:comma (fun ppf (n, v) ->
                        Fmt.pf ppf "%s=%a" n Value.pp v))
                  assignment T.pp constraint_
              else refute (j + 1)
          in
          refute 0
        | Solver.Csp.Unknown -> run_problem (i + 1)
      end
    in
    run_problem 0
  end

(* ------------------------------------------------------------------ *)
(* Oracle 5: static-analysis soundness                                 *)

(* A [Dead] verdict claims no execution whose inputs conform to their
   declared domains can cover the objective; executing the case's input
   sequence and watching the tracker refutes that claim directly.  Any
   hit is an analyzer soundness bug and shrinks like every other
   failure. *)
let analysis prog steps =
  let summary = Analysis.Verdict.of_program prog in
  let oct_summary =
    Analysis.Verdict.of_program
      ~config:{ Analysis.Analyzer.domain = `Octagon } prog
  in
  (* the two domains are both sound, so wherever both decide an
     objective they must agree; a contradiction is an analyzer bug in
     one of them *)
  let contra = ref None in
  let check_pair what pp_key =
    List.iter2 (fun (k, vi) (_, vo) ->
        match (vi, vo) with
        | Analysis.Verdict.Unknown, _ | _, Analysis.Verdict.Unknown -> ()
        | _ ->
          if vi <> vo && !contra = None then
            contra := Some (Fmt.str "%s %s: interval %a vs octagon %a" what
                              (pp_key k) Analysis.Verdict.pp vi
                              Analysis.Verdict.pp vo))
  in
  check_pair "branch" (Fmt.str "%a" Branch.pp_key)
    summary.Analysis.Verdict.v_branches
    oct_summary.Analysis.Verdict.v_branches;
  check_pair "condition" (fun (d, i, v) -> Fmt.str "(%d,%d,%b)" d i v)
    summary.Analysis.Verdict.v_conditions
    oct_summary.Analysis.Verdict.v_conditions;
  check_pair "mcdc" (fun (d, i) -> Fmt.str "(%d,%d)" d i)
    summary.Analysis.Verdict.v_mcdc oct_summary.Analysis.Verdict.v_mcdc;
  match !contra with
  | Some msg -> fail "domain contradiction: %s" msg
  | None ->
  (* union of both domains' dead sets: each is a standalone soundness
     claim, so a dynamic cover of either is a failure *)
  let dead_b =
    Analysis.Verdict.dead_branches summary
    @ Analysis.Verdict.dead_branches oct_summary
  in
  let dead_c =
    Analysis.Verdict.dead_conditions summary
    @ Analysis.Verdict.dead_conditions oct_summary
  in
  let dead_m =
    Analysis.Verdict.dead_mcdc summary
    @ Analysis.Verdict.dead_mcdc oct_summary
  in
  if dead_b = [] && dead_c = [] && dead_m = [] then Pass
  else begin
    let ex = Exec.handle prog in
    let conforming row =
      List.for_all
        (fun (name, v) ->
          match
            List.find_opt (fun (var : Ir.var) -> var.name = name)
              prog.Ir.inputs
          with
          | Some var -> Value.member var.ty v
          | None -> true (* unknown names are dropped by inputs_of_list *))
        row
    in
    let tr = Coverage.Tracker.create prog in
    let rec go st = function
      | [] -> ()
      | row :: rest when conforming row -> (
        match
          Exec.run_step ~on_event:(Coverage.Tracker.observe tr) ex st
            (Exec.inputs_of_list ex row)
        with
        | _, st' -> go st' rest
        | exception Exec.Eval_error _ ->
          (* the step aborted; events emitted before the error are
             real executions and stay counted *)
          ())
      | _ -> ()
    in
    go (Exec.initial_state ex) steps;
    let hit_b =
      List.find_opt (fun k -> Coverage.Tracker.is_branch_covered tr k) dead_b
    in
    let hit_c =
      List.find_opt
        (fun (d, i, v) -> Coverage.Tracker.is_condition_covered tr d i v)
        dead_c
    in
    let uncovered_m = Coverage.Tracker.uncovered_mcdc tr in
    let hit_m =
      List.find_opt (fun p -> not (List.mem p uncovered_m)) dead_m
    in
    match (hit_b, hit_c, hit_m) with
    | Some key, _, _ ->
      fail "dead branch %a covered dynamically" Branch.pp_key key
    | None, Some (d, i, v), _ ->
      fail "dead condition (%d,%d,%b) covered dynamically" d i v
    | None, None, Some (d, i) ->
      fail "dead mcdc objective (%d,%d) demonstrated dynamically" d i
    | None, None, None -> Pass
  end

(* ------------------------------------------------------------------ *)
(* Oracle 6: spec-monitor differential                                 *)

(* Execute the case's input rows to get an output trace, generate
   random STL formulas over the program's scalar outputs, and require
   (a) the sliding-window monitor to agree with the naive reference
   monitor bit-for-bit at every evaluation step, and (b) the
   robustness sign to agree with the independent boolean semantics
   whenever nonzero.  Traces containing non-finite samples are skipped:
   NaN deliberately breaks the deque/fold equivalence (incomparable
   under <), so the bit-for-bit contract only covers finite traces. *)

let spec_mon ~seed prog steps =
  let ex = Exec.handle prog in
  let scalar_outs =
    Array.to_list (Exec.output_vars ex)
    |> List.filter_map (fun (v : Ir.var) ->
           match v.ty with
           | Value.Tvec _ -> None
           | _ -> Some v.name)
  in
  if scalar_outs = [] then Pass
  else begin
    (* keep the prefix before any runtime error: a partial trace is
       still a trace *)
    let rec exec_go st acc = function
      | [] -> List.rev acc
      | row :: rest -> (
        match Exec.run_step ex st (Exec.inputs_of_list ex row) with
        | out, st' -> exec_go st' (out :: acc) rest
        | exception Exec.Eval_error _ -> List.rev acc)
    in
    let outs = exec_go (Exec.initial_state ex) [] steps in
    if outs = [] then Pass
    else begin
      let trace = Spec.Monitor.of_run ex outs in
      let finite =
        List.for_all
          (fun (_, col) -> Array.for_all Float.is_finite col)
          (Spec.Monitor.columns trace)
      in
      if not finite then Pass
      else begin
        let n = Spec.Monitor.length trace in
        let rng = Util.Splitmix.create (seed lxor 0x57EC) in
        let open Spec.Stl in
        let rec gen_sig depth =
          if depth = 0 || Util.Splitmix.int rng 3 = 0 then
            if Util.Splitmix.bool rng then
              Sig (Util.Splitmix.choose rng scalar_outs)
            else Const (float_of_int (Util.Splitmix.int_in rng (-50) 50))
          else
            let a = gen_sig (depth - 1) and b = gen_sig (depth - 1) in
            match Util.Splitmix.int rng 7 with
            | 0 -> Add (a, b)
            | 1 -> Sub (a, b)
            | 2 -> Mul (a, b)
            | 3 -> Neg a
            | 4 -> Abs a
            | 5 -> Min (a, b)
            | _ -> Max (a, b)
        in
        let gen_cmp () =
          Util.Splitmix.choose rng [ Le; Lt; Ge; Gt; Eq ]
        in
        let gen_bounds () =
          let a = Util.Splitmix.int rng 7 in
          (a, a + Util.Splitmix.int rng 9)
        in
        let rec gen_formula depth =
          if depth = 0 || Util.Splitmix.int rng 4 = 0 then
            Atom (gen_cmp (), gen_sig 2, gen_sig 2)
          else
            let f = gen_formula (depth - 1) in
            match Util.Splitmix.int rng 7 with
            | 0 -> Not f
            | 1 -> And (f, gen_formula (depth - 1))
            | 2 -> Or (f, gen_formula (depth - 1))
            | 3 -> Implies (f, gen_formula (depth - 1))
            | 4 ->
              let a, b = gen_bounds () in
              Always (a, b, f)
            | 5 ->
              let a, b = gen_bounds () in
              Eventually (a, b, f)
            | _ ->
              let a, b = gen_bounds () in
              Until (a, b, f, gen_formula (depth - 1))
        in
        let rec check_formula i =
          if i >= 5 then Pass
          else begin
            let f = gen_formula 3 in
            let fast = Spec.Monitor.robustness_signal trace f in
            let rec check_step t =
              if t >= n then check_formula (i + 1)
              else
                let naive = Spec.Monitor.robustness_naive ~at:t trace f in
                if
                  Int64.bits_of_float fast.(t) <> Int64.bits_of_float naive
                then
                  fail
                    "formula %s: step %d: deque monitor %h disagrees with reference %h"
                    (Spec.Stl.to_string f) t fast.(t) naive
                else if fast.(t) <> 0.0
                        && Float.is_finite fast.(t)
                        && Spec.Monitor.sat ~at:t trace f <> (fast.(t) > 0.0)
                then
                  fail
                    "formula %s: step %d: robustness %h sign disagrees with boolean semantics"
                    (Spec.Stl.to_string f) t fast.(t)
                else check_step (t + 1)
            in
            check_step 0
          end
        in
        check_formula 0
      end
    end
  end

(* ------------------------------------------------------------------ *)

let guard name f =
  match f () with
  | v -> v
  | exception e -> fail "%s oracle raised %s" name (Printexc.to_string e)

(* one span + run counter per oracle, so `fuzz --stats` attributes
   campaign time to the oracle that spent it *)
let tel_spans =
  List.map (fun n -> (n, Telemetry.Span.make ("fuzz.oracle." ^ n))) all

let tel_runs =
  List.map (fun n -> (n, Telemetry.Counter.make ("fuzz.oracle." ^ n ^ ".runs"))) all

let run ~which ~seed prog steps =
  List.filter_map
    (fun name ->
      if not (List.mem name which) then None
      else
        let timed f =
          Telemetry.Counter.incr (List.assoc name tel_runs);
          Telemetry.Span.with_ (List.assoc name tel_spans) (fun () ->
              guard name f)
        in
        let v =
          match name with
          | "exec" -> timed (fun () -> exec_diff prog steps)
          | "coverage" -> timed (fun () -> coverage prog steps)
          | "symexec" -> timed (fun () -> symexec ~seed prog steps)
          | "solver" -> timed (fun () -> solver ~seed prog steps)
          | "analysis" -> timed (fun () -> analysis prog steps)
          | "spec" -> timed (fun () -> spec_mon ~seed prog steps)
          | _ -> Fail ("unknown oracle " ^ name)
        in
        Some (name, v))
    all
