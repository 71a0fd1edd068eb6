(* [Csp.solve] as it was before the slot buffer: each sampling attempt
   a closure in a list, each candidate a fresh [Smap] built in [p_vars]
   order and read through [Smap.find], evaluated by the tree walk
   ([Fuzzer.Term_eval], formerly [Term.eval]).  Kept verbatim, apart
   from the telemetry and that call, as an independent reference for the
   differential property in test_solver.ml. *)

module Value = Slim.Value
module Csp = Solver.Csp
module Dom = Solver.Dom
module Hc4 = Solver.Hc4
module Term = Solver.Term
module Smap = Csp.Smap

exception Out_of_budget

(* internal search outcome *)
type outcome =
  | Found of Value.t Smap.t
  | Exhausted  (** subtree fully refuted *)
  | Gave_up  (** real-valued leaf could not be decided *)

let assignment_of_store (store : Hc4.store) vars pick =
  List.fold_left
    (fun acc (x, _) ->
      let d = Hc4.get store x in
      Smap.add x (pick d) acc)
    Smap.empty vars

let pick_mid = function
  | Dom.Dbool { can_true; _ } -> Value.Bool can_true
  | Dom.Dint { lo; hi } -> Value.Int (Dom.int_mid lo hi)
  | Dom.Dreal { lo; hi } -> Value.Real (Dom.real_mid lo hi)

let pick_lo = function
  | Dom.Dbool { can_false; _ } -> Value.Bool (not can_false)
  | Dom.Dint { lo; _ } -> Value.Int lo
  | Dom.Dreal { lo; _ } -> Value.Real lo

let pick_hi = function
  | Dom.Dbool { can_true; _ } -> Value.Bool can_true
  | Dom.Dint { hi; _ } -> Value.Int hi
  | Dom.Dreal { hi; _ } -> Value.Real hi

let pick_zero d =
  let z =
    match d with
    | Dom.Dbool _ -> Value.Bool false
    | Dom.Dint _ -> Value.Int 0
    | Dom.Dreal _ -> Value.Real 0.0
  in
  if Dom.member d z then z else pick_mid d

let pick_random rng = function
  | Dom.Dbool { can_true; can_false } ->
    if can_true && can_false then Value.Bool (Random.State.bool rng)
    else Value.Bool can_true
  | Dom.Dint { lo; hi } -> Value.Int (Value.random_int rng lo hi)
  | Dom.Dreal { lo; hi } ->
    Value.Real (if hi > lo then Value.random_real rng lo hi else lo)

let satisfied constraint_ assignment =
  match Fuzzer.Term_eval.eval (fun x -> Smap.find x assignment) constraint_ with
  | Value.Bool b -> b
  | _ -> false
  | exception (Value.Type_error _ | Not_found) -> false

let default_budget = 20_000

let solve ?(node_budget = default_budget) ?(hc4_memo = true) ?rng
    (problem : Csp.problem) =
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| 0x57C6 |]
  in
  let stats =
    { Csp.nodes = 0; propagation_rounds = 0; samples_tried = 0;
      term_size = Term.size problem.p_constraint }
  in
  let vars = problem.p_vars in
  let constraint_ = problem.p_constraint in
  (* trivial cases *)
  match Term.is_const constraint_ with
  | Some (Value.Bool false) -> (Csp.Unsat, stats)
  | Some (Value.Bool true) ->
    let assignment =
      List.fold_left
        (fun acc (x, ty) -> Smap.add x (Value.default_of_ty ty) acc)
        Smap.empty vars
    in
    (Csp.Sat assignment, stats)
  | Some _ -> (Csp.Unsat, stats)
  | None ->
    let try_samples store =
      let attempts =
        [ pick_mid; pick_lo; pick_hi; pick_zero ]
        @ List.init 4 (fun _ -> pick_random rng)
      in
      let rec go = function
        | [] -> None
        | pick :: rest ->
          stats.samples_tried <- stats.samples_tried + 1;
          let a = assignment_of_store store vars pick in
          if satisfied constraint_ a then Some a else go rest
      in
      go attempts
    in
    let choose_split store =
      (* widest unresolved domain first; booleans count as width 1 *)
      let best = ref None in
      List.iter
        (fun (x, _) ->
          let d = Hc4.get store x in
          let w = Dom.width d in
          if w > 0.0 then
            match !best with
            | Some (_, _, bw) when bw >= w -> ()
            | _ -> (
              match Dom.split d with
              | Some (l, r) -> best := Some (x, (l, r), w)
              | None -> ()))
        vars;
      !best
    in
    let rec dfs store =
      stats.nodes <- stats.nodes + 1;
      if stats.nodes > node_budget then raise Out_of_budget;
      match Hc4.propagate store constraint_ with
      | `Unsat -> Exhausted
      | `Ok -> (
        stats.propagation_rounds <- stats.propagation_rounds + 1;
        match try_samples store with
        | Some a -> Found a
        | None -> (
          match choose_split store with
          | None ->
            (* all domains are points (or below the real width floor)
               and sampling failed: cannot decide this leaf *)
            let all_exact =
              List.for_all
                (fun (x, _) ->
                  match Hc4.get store x with
                  | Dom.Dreal _ -> false
                  | _ -> true)
                vars
            in
            if all_exact then Exhausted else Gave_up
          | Some (x, (l, r), _) -> (
            match dfs (Hc4.split_store store x l) with
            | Found a -> Found a
            | left_out -> (
              match dfs (Hc4.split_store store x r) with
              | Found a -> Found a
              | Exhausted ->
                if left_out = Gave_up then Gave_up else Exhausted
              | Gave_up -> Gave_up))))
    in
    let store =
      Hc4.create_store ~memo:hc4_memo
        (List.map (fun (x, ty) -> (x, Dom.of_ty ty)) vars)
    in
    match dfs store with
    | Found a -> (Csp.Sat a, stats)
    | Exhausted -> (Csp.Unsat, stats)
    | Gave_up -> (Csp.Unknown, stats)
    | exception Out_of_budget -> (Csp.Unknown, stats)
    | exception Dom.Empty -> (Csp.Unsat, stats)
