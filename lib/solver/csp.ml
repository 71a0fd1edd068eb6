module Value = Slim.Value
module Smap = Map.Make (String)

type problem = {
  p_vars : (string * Value.ty) list;
  p_constraint : Term.t;
}

type result =
  | Sat of Value.t Smap.t
  | Unsat
  | Unknown

type stats = {
  mutable nodes : int;
  mutable propagation_rounds : int;
  mutable samples_tried : int;
  mutable term_size : int;
}

exception Out_of_budget

(* internal search outcome *)
type outcome =
  | Found of Value.t Smap.t
  | Exhausted  (** subtree fully refuted *)
  | Gave_up  (** real-valued leaf could not be decided *)

(* The sampling attempts at a leaf, in order: mid, lo, hi, zero, then
   four random picks from [first_random] on. *)
let attempts = 8
let first_random = 4

(* Input [i] of the candidate: attempt [attempt]'s pick from [d] (mid,
   lo, hi, zero when [d] holds it and mid otherwise, then random). *)
let pick p i rng attempt d =
  match d with
  | Dom.Dbool { can_true; can_false } ->
    Compiled.set_bool p i
      (match attempt with
       | 0 | 2 -> can_true
       | 1 -> not can_false
       | 3 -> (not can_false) && can_true
       | _ -> if can_true && can_false then Random.State.bool rng else can_true)
  | Dom.Dint { lo; hi } ->
    Compiled.set_int p i
      (match attempt with
       | 0 -> Dom.int_mid lo hi
       | 1 -> lo
       | 2 -> hi
       | 3 -> if lo <= 0 && 0 <= hi then 0 else Dom.int_mid lo hi
       | _ -> Value.random_int rng lo hi)
  | Dom.Dreal { lo; hi } ->
    Compiled.set_real p i
      (match attempt with
       | 0 -> Dom.real_mid lo hi
       | 1 -> lo
       | 2 -> hi
       | 3 -> if lo <= 0.0 && 0.0 <= hi then 0.0 else Dom.real_mid lo hi
       | _ -> if hi > lo then Value.random_real rng lo hi else lo)

(* The sampler.  The constraint is compiled once per call, at the first
   sample ({!Compiled}), so a candidate is evaluated on unboxed
   registers without a name lookup, a closure or a table per
   evaluation.  A candidate is the compiled constraint's input
   registers, one per entry of [p_vars]; an entry picks from the domain
   of the slot its name resolves to, and a name reads its last entry,
   as [Smap.add] in [p_vars] order does, so it reads the binding the
   accepted map will hold.  A rejected candidate thus builds no map
   and, on booleans and ints, allocates nothing.  [errors] counts the
   candidates whose evaluation raised, and [drew] tells whether an
   attempt picked at random, for the answer memo. *)
type sampler = {
  layout : Hc4.layout;
  prog : Compiled.t;
  mutable errors : int;
  mutable drew : bool;
}

let make_sampler layout constraint_ =
  { layout; prog = Compiled.compile layout constraint_; errors = 0;
    drew = false }

let tel_samples = Telemetry.Counter.make "solver.samples"
let tel_sample_errors = Telemetry.Counter.make "solver.sample_errors"

let satisfied s =
  match Compiled.holds s.prog with
  | b -> b
  | exception (Value.Type_error _ | Not_found) ->
    s.errors <- s.errors + 1;
    Telemetry.Counter.incr tel_sample_errors;
    false

let assignment s =
  let names = s.layout.Hc4.names in
  let a = ref Smap.empty in
  for i = 0 to Array.length names - 1 do
    a := Smap.add names.(i) (Compiled.input s.prog i) !a
  done;
  !a

(* The first satisfying candidate of the attempts, as a map.  Each
   attempt picks every variable in [p_vars] order, duplicates included,
   as building a map per candidate did, so the RNG draws are the same.
   An entry picks from the domain of the slot its name resolves to. *)
let first_sample s rng stats store =
  let live = s.layout.Hc4.live in
  let found = ref false and k = ref 0 in
  while (not !found) && !k < attempts do
    stats.samples_tried <- stats.samples_tried + 1;
    if !k >= first_random then s.drew <- true;
    for i = 0 to Array.length live - 1 do
      pick s.prog i rng !k (Hc4.get_slot store live.(i))
    done;
    found := satisfied s;
    incr k
  done;
  if !found then Some (assignment s) else None

(* The entry whose domain the search splits: the widest splittable one,
   the first of equals; booleans count as width 1.  -1 when none is. *)
let choose_split layout store = Dom.widest store.Hc4.doms layout.Hc4.live

let default_budget = 20_000

let tel_calls = Telemetry.Counter.make "solver.solve_calls"
let tel_sat = Telemetry.Counter.make "solver.sat"
let tel_unsat = Telemetry.Counter.make "solver.unsat"
let tel_unknown = Telemetry.Counter.make "solver.unknown"
let tel_nodes = Telemetry.Counter.make "solver.nodes"
let tel_splits = Telemetry.Counter.make "solver.splits"
let tel_h_nodes = Telemetry.Histogram.make "solver.nodes_per_call"
let tel_h_term = Telemetry.Histogram.make "solver.term_size"

let tel_memo_hits = Telemetry.Counter.make "solver.memo_hits"
let tel_memo_clears = Telemetry.Counter.make "solver.memo_clears"

let tel_result (res, (stats : stats)) =
  if Telemetry.enabled () then begin
    Telemetry.Counter.incr tel_calls;
    Telemetry.Counter.incr
      (match res with
       | Sat _ -> tel_sat
       | Unsat -> tel_unsat
       | Unknown -> tel_unknown);
    Telemetry.Counter.add tel_nodes stats.nodes;
    Telemetry.Counter.add tel_samples stats.samples_tried;
    Telemetry.Histogram.observe tel_h_nodes stats.nodes;
    Telemetry.Histogram.observe tel_h_term stats.term_size
  end;
  (res, stats)

(* A call as the memo records it: its answer and stats, and the one
   counter it bumped outside [tel_result].  A recorded call made no
   split ([solver.splits]): a split follows a sampling round that
   failed, and so drew.  The constraint is kept so that its id stays in
   use: a term the GC reclaimed would come back under a new id, and hits
   would then depend on GC timing. *)
type entry = {
  term : Term.t;
  answer : result;
  e_stats : stats;  (** a copy: the caller may mutate the one returned *)
  sample_errors : int;
}

(* Answers by constraint id, for one [p_vars] list (physically) and one
   [hc4_memo] setting. *)
type memo = {
  answers : (int, entry) Hashtbl.t;
  mutable vars_of : (string * Value.ty) list;
  mutable hc4_memo_of : bool;
}

let create_memo () =
  { answers = Hashtbl.create 64; vars_of = []; hc4_memo_of = true }

(* Many times the answers an engine run records (a few hundred at most
   on the registry models); a memo that reaches it starts over, and
   counts the clear. *)
let memo_cap = 4096

let clear_memo m =
  if Hashtbl.length m.answers > 0 then begin
    Telemetry.Counter.incr tel_memo_clears;
    Hashtbl.reset m.answers
  end

let copy_stats (s : stats) = { s with nodes = s.nodes }

let recall m ?(node_budget = default_budget) ?(hc4_memo = true) problem =
  if m.vars_of != problem.p_vars || m.hc4_memo_of <> hc4_memo then begin
    clear_memo m;
    m.vars_of <- problem.p_vars;
    m.hc4_memo_of <- hc4_memo
  end;
  match Hashtbl.find m.answers (Term.id problem.p_constraint) with
  | e when e.e_stats.nodes <= node_budget ->
    Telemetry.Counter.incr tel_memo_hits;
    Telemetry.Counter.add tel_sample_errors e.sample_errors;
    Some (tel_result (e.answer, copy_stats e.e_stats))
  | _ -> None
  | exception Not_found -> None

(* A call that drew nothing from the RNG and finished within its budget
   is a function of the problem and the flag alone, up to the budget
   cut: a later call whose budget covers its nodes would repeat it. *)
let record m problem answer stats ~sample_errors =
  if Hashtbl.length m.answers >= memo_cap then clear_memo m;
  Hashtbl.replace m.answers (Term.id problem.p_constraint)
    { term = problem.p_constraint; answer; e_stats = copy_stats stats;
      sample_errors }

let solve_fresh ~node_budget ~hc4_memo ?rng ?memo problem =
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| 0x57C6 |]
  in
  let stats =
    { nodes = 0; propagation_rounds = 0; samples_tried = 0;
      term_size = Term.size problem.p_constraint }
  in
  let vars = problem.p_vars in
  let constraint_ = problem.p_constraint in
  let finish ?sampler res =
    (match memo with
     | Some m when stats.nodes <= node_budget -> (
       match sampler with
       | None -> record m problem res stats ~sample_errors:0
       | Some s when not s.drew ->
         record m problem res stats ~sample_errors:s.errors
       | Some _ -> ())
     | Some _ | None -> ());
    (res, stats)
  in
  (* trivial cases *)
  match Term.is_const constraint_ with
  | Some (Value.Bool false) -> finish Unsat
  | Some (Value.Bool true) ->
    let assignment =
      List.fold_left
        (fun acc (x, ty) -> Smap.add x (Value.default_of_ty ty) acc)
        Smap.empty vars
    in
    finish (Sat assignment)
  | Some _ -> finish Unsat
  | None ->
    let layout = Hc4.layout vars in
    (* made on the first sample: most calls end in propagation *)
    let sampler = ref None in
    let try_samples store =
      let s =
        match !sampler with
        | Some s -> s
        | None ->
          let s = make_sampler layout constraint_ in
          sampler := Some s;
          s
      in
      first_sample s rng stats store
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
        | None ->
          let i = choose_split layout store in
          if i < 0 then
            (* all domains are points (or below the real width floor)
               and sampling failed: cannot decide this leaf *)
            let all_exact =
              Array.for_all
                (fun slot ->
                  match Hc4.get_slot store slot with
                  | Dom.Dreal _ -> false
                  | _ -> true)
                layout.Hc4.live
            in
            if all_exact then Exhausted else Gave_up
          else begin
            Telemetry.Counter.incr tel_splits;
            let slot = layout.Hc4.live.(i) in
            let d = Hc4.get_slot store slot in
            match dfs (Hc4.split_slot store slot (Dom.lower d)) with
            | Found a -> Found a
            | left_out -> (
              match dfs (Hc4.split_slot store slot (Dom.upper d)) with
              | Found a -> Found a
              | Exhausted ->
                if left_out = Gave_up then Gave_up else Exhausted
              | Gave_up -> Gave_up)
          end)
    in
    let store =
      Hc4.create ~memo:hc4_memo layout
        (Array.of_list (List.map (fun (_, ty) -> Dom.of_ty ty) vars))
    in
    finish ?sampler:!sampler
      (match dfs store with
       | Found a -> Sat a
       | Exhausted -> Unsat
       | Gave_up -> Unknown
       | exception Out_of_budget -> Unknown
       | exception Dom.Empty -> Unsat)

let solve ?(node_budget = default_budget) ?(hc4_memo = true) ?rng ?memo problem =
  match memo with
  | None -> tel_result (solve_fresh ~node_budget ~hc4_memo ?rng problem)
  | Some m -> (
    match recall m ~node_budget ~hc4_memo problem with
    | Some replayed -> replayed
    | None -> tel_result (solve_fresh ~node_budget ~hc4_memo ?rng ?memo problem))

let pp_result ppf = function
  | Sat a ->
    Fmt.pf ppf "sat {%a}"
      Fmt.(
        list ~sep:comma (fun ppf (k, v) -> Fmt.pf ppf "%s=%a" k Value.pp v))
      (Smap.bindings a)
  | Unsat -> Fmt.string ppf "unsat"
  | Unknown -> Fmt.string ppf "unknown"
