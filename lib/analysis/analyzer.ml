(* Flow-sensitive abstract interpreter over the SLIM step program.

   Soundness before precision: the verdict client promotes [Never] to a
   "dead objective" that the engine skips *without* any dynamic
   confirmation, so every transfer function here must over-approximate
   the concrete step semantics in [Slim.Exec].  The places where that
   is subtle are flagged with [SOUND:] comments:

   SOUND/int-overflow: OCaml native ints wrap silently.  Interval
   arithmetic over ints is only exact while every bound stays inside
   the float-exact window, so any result with a bound beyond [big]
   (1e15) collapses the whole interval to [Absval.int_top].
   (Collapsing a single bound is NOT enough: wrapping can send a large
   positive concrete value to a negative one.)

   SOUND/float-rounding: concrete real arithmetic is double
   round-to-nearest; the interval bounds are computed with the *same*
   operations, which are monotone in each argument, so corner bounds
   over-approximate.  [Float.rem] is exact.

   SOUND/nan: runtime reals can overflow to [inf] and combine to [nan]
   ([inf - inf], [0 * inf], [inf / inf], [Float.rem inf _]); [nan]
   compares below every float under [Value.compare_num].  No interval
   contains [nan], so every operation that may produce it returns the
   full real line ([Absval.real_top]), and a value abstracted as the
   full real line is treated as possibly-[nan]: comparisons on it stay
   unknown and guard refinement never narrows through it.

   SOUND/aliasing: the analysis assumes a whole-vector assignment may
   alias two slots, so that a later element write mutates both (and an
   element write through an [Lindex] whose root is an input mutates the
   input).  [Exec] and the reference interpreter now copy on every store
   (value semantics), so no such aliasing happens; the assumption only
   over-approximates and stays sound.  A static union-find over
   whole-vector data flow yields may-alias classes; element writes
   weakly update the whole class unless it is a singleton. *)

module Ir = Slim.Ir
module Value = Slim.Value
module Branch = Slim.Branch
module Dom = Solver.Dom
module I = Solver.Interval

let tel_runs = Telemetry.Counter.make "analysis.runs"
let tel_iterations = Telemetry.Counter.make "analysis.fixpoint_iterations"
let tel_widenings = Telemetry.Counter.make "analysis.widenings"
let tel_span = Telemetry.Span.make "analysis.analyze"
let tel_octvars_dropped = Telemetry.Counter.make "analysis.octvars_dropped"

type reach = Never | May | Must

let pp_reach ppf r =
  Fmt.string ppf (match r with Never -> "never" | May -> "may" | Must -> "must")

type guard_fact = {
  g_reach : reach;
  g_val : I.bool3;
  g_atoms : I.bool3 array;
}

type result = {
  r_prog : Ir.program;
  r_iterations : int;
  r_widenings : int;
  r_branch_reach : (Branch.key * reach) list;
  r_guards : (int * guard_fact) list;
  r_diags : Diag.t list;
  r_state : (string * Absval.t) list;
  r_out : (string * Absval.t) list;
}

(* ------------------------------------------------------------------ *)
(* Static program info                                                 *)

type scope_info = {
  si_vars : Ir.var array;
  si_index : (string, int) Hashtbl.t;
}

let scope_info vars =
  let si_vars = Array.of_list vars in
  let si_index = Hashtbl.create (max 8 (Array.length si_vars)) in
  Array.iteri (fun i (v : Ir.var) -> Hashtbl.replace si_index v.name i) si_vars;
  { si_vars; si_index }

type info = {
  i_prog : Ir.program;
  i_in : scope_info;
  i_out : scope_info;
  i_st : scope_info;
  i_lo : scope_info;
  i_state_init : Absval.t array;
  i_input_top : Absval.t array;
  i_output_init : Absval.t array;
  i_local_init : Absval.t array;
  i_alias : (Ir.scope * string, (Ir.scope * string) list) Hashtbl.t;
      (* may-alias class of each element-written vector root; absent
         for roots whose class is a singleton (strong updates allowed) *)
  i_consts_mutable : bool;
      (* some vector literal may be mutated in place through an alias *)
}

(* May-alias classes: union the target of every whole-value assignment
   with the variables (and vector literals) its right-hand side could
   alias.  Only classes that are actually element-written matter. *)
module Alias = struct
  type key = V of Ir.scope * string | Const_vec

  let roots e =
    let rec go acc = function
      | Ir.Var (s, n) -> V (s, n) :: acc
      | Ir.Ite (_, a, b) -> go (go acc a) b
      | Ir.Index (v, _) -> go acc v
      | Ir.Const (Value.Vec _) -> Const_vec :: acc
      | Ir.Const _ | Ir.Unop _ | Ir.Binop _ | Ir.Cmp _ | Ir.And _ | Ir.Or _ ->
        acc
    in
    go [] e

  let rec lv_root = function
    | Ir.Lvar (s, n) -> V (s, n)
    | Ir.Lindex (inner, _) -> lv_root inner

  (* representative lookup with path compression *)
  let rec find parent k =
    match Hashtbl.find_opt parent k with
    | None -> k
    | Some p ->
      let r = find parent p in
      if r <> p then Hashtbl.replace parent k r;
      r

  let compute (prog : Ir.program) =
    let parent : (key, key) Hashtbl.t = Hashtbl.create 16 in
    let keys : (key, unit) Hashtbl.t = Hashtbl.create 16 in
    let touch k = Hashtbl.replace keys k () in
    let union a b =
      touch a;
      touch b;
      let ra = find parent a and rb = find parent b in
      if ra <> rb then Hashtbl.replace parent ra rb
    in
    let mutated_roots : key list ref = ref [] in
    let rec stmts ss = List.iter stmt ss
    and stmt = function
      | Ir.Assign (lhs, e) ->
        let lroot = lv_root lhs in
        (match lhs with
         | Ir.Lindex _ ->
           touch lroot;
           mutated_roots := lroot :: !mutated_roots
         | Ir.Lvar _ -> ());
        List.iter (fun r -> union lroot r) (roots e)
      | Ir.If { then_; else_; _ } ->
        stmts then_;
        stmts else_
      | Ir.Switch { cases; default; _ } ->
        List.iter (fun (_, ss) -> stmts ss) cases;
        stmts default
    in
    stmts prog.Ir.body;
    let classes : (key, key list) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.iter
      (fun k () ->
        let r = find parent k in
        let cur = Option.value ~default:[] (Hashtbl.find_opt classes r) in
        Hashtbl.replace classes r (k :: cur))
      keys;
    let mutated_reps : (key, unit) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun k -> Hashtbl.replace mutated_reps (find parent k) ())
      !mutated_roots;
    let alias = Hashtbl.create 8 in
    let consts_mutable = ref false in
    Hashtbl.iter
      (fun rep members ->
        if Hashtbl.mem mutated_reps rep then begin
          let vars =
            List.filter_map
              (function V (s, n) -> Some (s, n) | Const_vec -> None)
              members
          in
          if List.exists (function Const_vec -> true | V _ -> false) members
          then consts_mutable := true;
          if List.length vars > 1 then
            List.iter (fun v -> Hashtbl.replace alias v vars) vars
        end)
      classes;
    (alias, !consts_mutable)
end

let build_info (prog : Ir.program) =
  let alias, consts_mutable = Alias.compute prog in
  {
    i_prog = prog;
    i_in = scope_info prog.inputs;
    i_out = scope_info prog.outputs;
    i_st = scope_info (List.map fst prog.states);
    i_lo = scope_info prog.locals;
    i_state_init =
      Array.of_list (List.map (fun (_, v) -> Absval.of_value v) prog.states);
    i_input_top =
      Array.of_list
        (List.map (fun (v : Ir.var) -> Absval.top_of_ty v.ty) prog.inputs);
    i_output_init =
      Array.of_list
        (List.map
           (fun (v : Ir.var) -> Absval.of_value (Value.default_of_ty v.ty))
           prog.outputs);
    i_local_init =
      Array.of_list
        (List.map
           (fun (v : Ir.var) -> Absval.of_value (Value.default_of_ty v.ty))
           prog.locals);
    i_alias = alias;
    i_consts_mutable = consts_mutable;
  }

(* ------------------------------------------------------------------ *)
(* Analyzer configuration and octagon variable universe                *)

type domain = [ `Interval | `Octagon ]
type config = { domain : domain }

let default_config = { domain = `Interval }

(* The relational domain tracks a bounded universe of numeric cells:
   every int/real scalar (inputs, states, locals), then the elements of
   State-scope vectors outside any may-alias class (their element
   writes are strong, so exact relations survive).  [-1] as the element
   index marks a scalar cell. *)
module Octvars = struct
  type t = {
    ov_keys : (Ir.scope * string * int) array;
    ov_ints : bool array;
    ov_index : (Ir.scope * string * int, int) Hashtbl.t;
  }

  let max_vars = 48

  let build (info : info) =
    let keys = ref [] in
    let count = ref 0 in
    let push key is_int =
      if !count < max_vars then begin
        keys := (key, is_int) :: !keys;
        incr count
      end
      else Telemetry.Counter.incr tel_octvars_dropped
    in
    let scalar scope (v : Ir.var) =
      match v.ty with
      | Value.Tint _ -> push (scope, v.name, -1) true
      | Value.Treal _ -> push (scope, v.name, -1) false
      | Value.Tbool | Value.Tvec _ -> ()
    in
    List.iter (scalar Ir.Input) info.i_prog.Ir.inputs;
    List.iter (fun ((v : Ir.var), _) -> scalar Ir.State v) info.i_prog.Ir.states;
    List.iter (scalar Ir.Local) info.i_prog.Ir.locals;
    List.iter
      (fun ((v : Ir.var), _) ->
        match v.ty with
        | Value.Tvec (elt, len)
          when not (Hashtbl.mem info.i_alias (Ir.State, v.name)) -> (
          match elt with
          | Value.Tint _ ->
            for k = 0 to len - 1 do
              push (Ir.State, v.name, k) true
            done
          | Value.Treal _ ->
            for k = 0 to len - 1 do
              push (Ir.State, v.name, k) false
            done
          | Value.Tbool | Value.Tvec _ -> ())
        | Value.Tbool | Value.Tint _ | Value.Treal _ | Value.Tvec _ -> ())
      info.i_prog.Ir.states;
    let l = List.rev !keys in
    let ov_keys = Array.of_list (List.map fst l) in
    let ov_ints = Array.of_list (List.map snd l) in
    let ov_index = Hashtbl.create (max 8 (Array.length ov_keys)) in
    Array.iteri (fun i k -> Hashtbl.replace ov_index k i) ov_keys;
    { ov_keys; ov_ints; ov_index }

  let find t key = Hashtbl.find_opt t.ov_index key
end

(* ------------------------------------------------------------------ *)
(* Abstract environments                                               *)

type env = {
  e_in : Absval.t array;
  e_out : Absval.t array;
  e_st : Absval.t array;
  e_lo : Absval.t array;
  e_lw : int array;  (* local write status: 0 never, 1 maybe, 2 definitely *)
  e_pout : string option array;  (* unread pending write, per output slot *)
  e_pst : string option array;
  e_plo : string option array;
  mutable e_err : bool;  (* a step-aborting Eval_error may have occurred *)
  mutable e_oct : Octagon.t option;  (* relational companion (octagon) *)
}

let env_make info state =
  {
    e_in = Array.copy info.i_input_top;
    e_out = Array.copy info.i_output_init;
    e_st = Array.copy state;
    e_lo = Array.copy info.i_local_init;
    e_lw = Array.make (Array.length info.i_local_init) 0;
    e_pout = Array.make (Array.length info.i_output_init) None;
    e_pst = Array.make (Array.length state) None;
    e_plo = Array.make (Array.length info.i_local_init) None;
    e_err = false;
    e_oct = None;
  }

let env_copy e =
  {
    e_in = Array.copy e.e_in;
    e_out = Array.copy e.e_out;
    e_st = Array.copy e.e_st;
    e_lo = Array.copy e.e_lo;
    e_lw = Array.copy e.e_lw;
    e_pout = Array.copy e.e_pout;
    e_pst = Array.copy e.e_pst;
    e_plo = Array.copy e.e_plo;
    e_err = e.e_err;
    e_oct = Option.map Octagon.copy e.e_oct;
  }

let env_blit ~src ~dst =
  let b a b = Array.blit a 0 b 0 (Array.length a) in
  b src.e_in dst.e_in;
  b src.e_out dst.e_out;
  b src.e_st dst.e_st;
  b src.e_lo dst.e_lo;
  b src.e_lw dst.e_lw;
  b src.e_pout dst.e_pout;
  b src.e_pst dst.e_pst;
  b src.e_plo dst.e_plo;
  dst.e_err <- src.e_err;
  dst.e_oct <- src.e_oct

(* join [src] into [dst] pointwise *)
let env_join_into ~src ~dst =
  let j a b = Array.iteri (fun i v -> b.(i) <- Absval.join v b.(i)) a in
  j src.e_in dst.e_in;
  j src.e_out dst.e_out;
  j src.e_st dst.e_st;
  j src.e_lo dst.e_lo;
  Array.iteri (fun i v -> if v <> dst.e_lw.(i) then dst.e_lw.(i) <- 1) src.e_lw;
  let jp a b = Array.iteri (fun i v -> if v <> b.(i) then b.(i) <- None) a in
  jp src.e_pout dst.e_pout;
  jp src.e_pst dst.e_pst;
  jp src.e_plo dst.e_plo;
  dst.e_err <- src.e_err || dst.e_err;
  dst.e_oct <-
    (match (src.e_oct, dst.e_oct) with
     | Some a, Some b -> Some (Octagon.join a b)
     | (Some _ | None), _ -> None)

(* ------------------------------------------------------------------ *)
(* Recording context                                                   *)

type ctx = {
  ci : info;
  c_oct : Octvars.t option;  (* octagon universe; [None] = interval domain *)
  mutable c_final : bool;  (* recording pass over the stabilized state *)
  mutable c_live : bool;  (* current statement's reach <> Never *)
  mutable c_loc : string;  (* current statement path, for eval-site diags *)
  mutable c_inchart : bool;  (* inside a chart state-dispatch arm *)
  mutable c_diags : Diag.t list;
  mutable c_branch : (Branch.key * reach) list;  (* reversed *)
  mutable c_guards : (int * guard_fact) list;  (* reversed *)
}

let diag ctx code msg =
  if ctx.c_final && ctx.c_live then
    ctx.c_diags <- Diag.make code ~loc:ctx.c_loc msg :: ctx.c_diags

(* ------------------------------------------------------------------ *)
(* Scalar transfer functions                                           *)

let big = 1e15

(* SOUND/int-overflow, SOUND/nan: the single funnel every numeric
   result passes through. *)
let legal_num (n : I.num) : Dom.t =
  if Float.is_nan n.nlo || Float.is_nan n.nhi then
    if I.is_int n then Absval.int_top else Absval.real_top
  else if I.is_int n then begin
    if n.nlo < -.big || n.nhi > big then Absval.int_top
    else
      let lo = int_of_float (Float.ceil n.nlo)
      and hi = int_of_float (Float.floor n.nhi) in
      if lo > hi then Absval.int_top else Dom.Dint { lo; hi }
  end
  else Dom.Dreal { lo = n.nlo; hi = n.nhi }

let nan_possible (n : I.num) =
  (not (I.is_int n)) && n.nlo = neg_infinity && n.nhi = infinity

let has_inf (n : I.num) = n.nlo = neg_infinity || n.nhi = infinity
let has_zero (n : I.num) = n.nlo <= 0.0 && n.nhi >= 0.0

let to_dom = function
  | Absval.Scalar d -> d
  | Absval.Vector _ -> Value.type_error "analysis: vector in scalar position"

let b3_of_abs a = I.b3_of_dom (to_dom a)
let num_of_abs a = I.num_of_dom (to_dom a)
let sc d = Absval.Scalar d

let binop_abs env op (na : I.num) (nb : I.num) : Absval.t =
  let real_result = not (I.is_int na && I.is_int nb) in
  match op with
  | Ir.Add -> sc (legal_num (I.nadd na nb))
  | Ir.Sub -> sc (legal_num (I.nsub na nb))
  | Ir.Mul ->
    (* SOUND/nan: 0 * inf with the zero strictly inside one operand
       escapes the corner scan *)
    if
      real_result
      && ((has_inf na && has_zero nb) || (has_inf nb && has_zero na))
    then sc Absval.real_top
    else sc (legal_num (I.nmul na nb))
  | Ir.Div ->
    if has_zero nb then begin
      env.e_err <- true;
      sc (if real_result then Absval.real_top else Absval.int_top)
    end
    else sc (legal_num (I.ndiv na nb))
  | Ir.Mod ->
    if has_zero nb then env.e_err <- true;
    if real_result && has_inf na then sc Absval.real_top
    else sc (legal_num (I.nmod na nb))
  | Ir.Min ->
    if real_result && (nan_possible na || nan_possible nb) then
      sc Absval.real_top
    else sc (legal_num (I.nmin na nb))
  | Ir.Max ->
    if real_result && (nan_possible na || nan_possible nb) then
      sc Absval.real_top
    else sc (legal_num (I.nmax na nb))

let cmp_b3 op (da : Dom.t) (db : Dom.t) : I.bool3 =
  (* [Value.compare_num] coerces booleans to 0/1 and compares floats,
     so a single numeric path is faithful for every scalar kind. *)
  let na = I.num_of_dom da and nb = I.num_of_dom db in
  if nan_possible na || nan_possible nb then I.b3_top
  else
    match op with
    | Ir.Lt ->
      if na.nhi < nb.nlo then I.b3_true
      else if na.nlo >= nb.nhi then I.b3_false
      else I.b3_top
    | Ir.Le ->
      if na.nhi <= nb.nlo then I.b3_true
      else if na.nlo > nb.nhi then I.b3_false
      else I.b3_top
    | Ir.Gt ->
      if na.nlo > nb.nhi then I.b3_true
      else if na.nhi <= nb.nlo then I.b3_false
      else I.b3_top
    | Ir.Ge ->
      if na.nlo >= nb.nhi then I.b3_true
      else if na.nhi < nb.nlo then I.b3_false
      else I.b3_top
    | Ir.Eq ->
      if na.nlo = na.nhi && nb.nlo = nb.nhi && na.nlo = nb.nlo then I.b3_true
      else if na.nhi < nb.nlo || nb.nhi < na.nlo then I.b3_false
      else I.b3_top
    | Ir.Ne ->
      if na.nhi < nb.nlo || nb.nhi < na.nlo then I.b3_true
      else if na.nlo = na.nhi && nb.nlo = nb.nhi && na.nlo = nb.nlo then
        I.b3_false
      else I.b3_top

(* ------------------------------------------------------------------ *)
(* Octagon hooks (relational domain)                                   *)

(* SOUND/int-overflow: relational facts are only exact while the
   abstract values involved stayed inside the float-exact window (a
   collapsed interval means the concrete value may have wrapped). *)
let within_big (n : I.num) = n.I.nlo >= -.big && n.I.nhi <= big

(* A side the octagon can track: a cell (variable, or constant-indexed
   element of a tracked vector) plus a constant offset.  Offsets only
   attach to int cells: float [v + c] rounds, while int [v + c] is
   exact whenever the enclosing interval did not collapse (which the
   callers check via [within_big] on the evaluated side). *)
let oct_term (ov : Octvars.t) (e : Ir.expr) : (int * float) option =
  let cell = function
    | Ir.Var (s, n) -> Octvars.find ov (s, n, -1)
    | Ir.Index (Ir.Var (s, n), Ir.Const (Value.Int k)) ->
      Octvars.find ov (s, n, k)
    | _ -> None
  in
  let int_cell v c =
    match cell v with
    | Some i when ov.Octvars.ov_ints.(i) -> Some (i, c)
    | Some _ | None -> None
  in
  match e with
  | Ir.Binop (Ir.Add, v, Ir.Const (Value.Int k)) -> int_cell v (float_of_int k)
  | Ir.Binop (Ir.Add, Ir.Const (Value.Int k), v) -> int_cell v (float_of_int k)
  | Ir.Binop (Ir.Sub, v, Ir.Const (Value.Int k)) ->
    int_cell v (-.float_of_int k)
  | _ -> ( match cell e with Some i -> Some (i, 0.0) | None -> None)

(* Decide [x op k] from [x in [lo, hi]]: both sides concretely evaluate
   to finite doubles inside the exact window (the callers check), so
   the mathematical comparison the bounds support is the runtime one. *)
let oct_decide op lo hi k : I.bool3 option =
  let t = Some I.b3_true and f = Some I.b3_false in
  match op with
  | Ir.Lt -> if hi < k then t else if lo >= k then f else None
  | Ir.Le -> if hi <= k then t else if lo > k then f else None
  | Ir.Gt -> if lo > k then t else if hi <= k then f else None
  | Ir.Ge -> if lo >= k then t else if hi < k then f else None
  | Ir.Eq ->
    if lo = k && hi = k then t else if hi < k || lo > k then f else None
  | Ir.Ne ->
    if hi < k || lo > k then t else if lo = k && hi = k then f else None

(* Try to decide a comparison the interval domain left open. *)
let oct_cmp ctx env op a b (na : I.num) (nb : I.num) : I.bool3 option =
  match (ctx.c_oct, env.e_oct) with
  | Some ov, Some o when not (Octagon.is_bottom o) ->
    if
      nan_possible na || nan_possible nb
      || not (within_big na && within_big nb)
    then None
    else begin
      match (oct_term ov a, oct_term ov b) with
      | Some (ia, ca), Some (ib, cb) ->
        if ia = ib then
          (* lhs - rhs is the constant [ca - cb] *)
          oct_decide op (ca -. cb) (ca -. cb) 0.0
        else begin
          (* (v_a + ca) op (v_b + cb)  <=>  (v_a - v_b) op (cb - ca) *)
          let lo, hi = Octagon.diff_bounds o ia ib in
          if lo > hi then None else oct_decide op lo hi (cb -. ca)
        end
      | (Some _ | None), _ -> None
    end
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)

let slot_of ctx env scope name =
  let si, arr =
    match scope with
    | Ir.Input -> (ctx.ci.i_in, env.e_in)
    | Ir.Output -> (ctx.ci.i_out, env.e_out)
    | Ir.State -> (ctx.ci.i_st, env.e_st)
    | Ir.Local -> (ctx.ci.i_lo, env.e_lo)
  in
  match Hashtbl.find_opt si.si_index name with
  | Some i -> (arr, i)
  | None ->
    Value.type_error "analysis: unbound %s variable %s" (Ir.scope_name scope)
      name

let read_var ctx env scope name =
  let arr, i = slot_of ctx env scope name in
  (match scope with
   | Ir.Input -> ()
   | Ir.Output -> env.e_pout.(i) <- None
   | Ir.State -> env.e_pst.(i) <- None
   | Ir.Local ->
     env.e_plo.(i) <- None;
     if env.e_lw.(i) = 0 then
       diag ctx Diag.Uninit_local_read
         (Fmt.str "local %s read before any write (default value)" name));
  arr.(i)

let rec eval ctx env (e : Ir.expr) : Absval.t =
  match e with
  | Ir.Const (Value.Vec _ as v) when ctx.ci.i_consts_mutable ->
    (* SOUND/aliasing: a vector literal stored into a slot and then
       element-written is mutated in place, so later evaluations of the
       literal may see arbitrary contents *)
    Absval.top_like (Absval.of_value v)
  | Ir.Const v -> Absval.of_value v
  | Ir.Var (scope, name) -> read_var ctx env scope name
  | Ir.Unop (op, e1) -> eval_unop ctx env op (eval ctx env e1)
  | Ir.Binop (op, a, b) ->
    let va = eval ctx env a in
    let vb = eval ctx env b in
    binop_abs env op (num_of_abs va) (num_of_abs vb)
  | Ir.Cmp (op, a, b) ->
    let va = eval ctx env a in
    let vb = eval ctx env b in
    let bv = cmp_b3 op (to_dom va) (to_dom vb) in
    let bv =
      if bv.I.bt && bv.I.bf then
        match oct_cmp ctx env op a b (num_of_abs va) (num_of_abs vb) with
        | Some r -> r
        | None -> bv
      else bv
    in
    sc (I.dom_of_b3 bv)
  | Ir.And (a, b) ->
    (* no short-circuit: Exec evaluates both operands *)
    let ba = b3_of_abs (eval ctx env a) in
    let bb = b3_of_abs (eval ctx env b) in
    sc (I.dom_of_b3 (I.b3_and ba bb))
  | Ir.Or (a, b) ->
    let ba = b3_of_abs (eval ctx env a) in
    let bb = b3_of_abs (eval ctx env b) in
    sc (I.dom_of_b3 (I.b3_or ba bb))
  | Ir.Ite (c, t, e1) ->
    let bc = b3_of_abs (eval ctx env c) in
    if not bc.I.bf then eval ctx env t
    else if not bc.I.bt then eval ctx env e1
    else Absval.join (eval ctx env t) (eval ctx env e1)
  | Ir.Index (v, ix) ->
    let av = eval ctx env v in
    let ai = eval ctx env ix in
    (match av with
     | Absval.Vector arr ->
       let n = Array.length arr in
       let lo, hi = index_range ai n in
       if hi < 0 || lo >= n then begin
         diag ctx Diag.Index_oob
           (Fmt.str "index in [%d,%d] always outside [0,%d)" lo hi n);
         env.e_err <- true;
         (* the access always raises; any value is a sound stand-in *)
         if n > 0 then Absval.top_like arr.(0) else sc Absval.int_top
       end
       else begin
         if lo < 0 || hi >= n then begin
           diag ctx Diag.Index_may_oob
             (Fmt.str "index in [%d,%d] may leave [0,%d)" lo hi n);
           env.e_err <- true
         end;
         let lo = max 0 lo and hi = min (n - 1) hi in
         let acc = ref arr.(lo) in
         for k = lo + 1 to hi do
           acc := Absval.join !acc arr.(k)
         done;
         !acc
       end
     | Absval.Scalar _ -> Value.type_error "analysis: Index on scalar")

and eval_unop ctx env op a =
  ignore ctx;
  ignore env;
  match op with
  | Ir.Not -> sc (I.dom_of_b3 (I.b3_not (b3_of_abs a)))
  | Ir.Neg -> sc (legal_num (I.nneg (num_of_abs a)))
  | Ir.Abs_op ->
    let n = num_of_abs a in
    (* SOUND/nan: abs of a possibly-nan value is nan, but nabs would
       report [0, inf] *)
    if nan_possible n then sc Absval.real_top else sc (legal_num (I.nabs n))
  | Ir.To_real ->
    let n = num_of_abs a in
    sc (Dom.Dreal { lo = n.nlo; hi = n.nhi })
  | Ir.To_int -> sc (legal_num (I.ntrunc (num_of_abs a)))
  | Ir.Floor -> sc (legal_num (I.nfloor (num_of_abs a)))
  | Ir.Ceil -> sc (legal_num (I.nceil (num_of_abs a)))

(* int range of an index expression under [Value.to_int] truncation *)
and index_range ai n =
  match legal_num (I.ntrunc (num_of_abs ai)) with
  | Dom.Dint { lo; hi } -> (lo, hi)
  | Dom.Dbool _ | Dom.Dreal _ -> (0, n - 1)

(* ------------------------------------------------------------------ *)
(* Guard refinement (backward narrowing on variable leaves)            *)

let narrow_var ctx env scope name (f : Dom.t -> Dom.t) =
  let arr, i = slot_of ctx env scope name in
  match arr.(i) with
  | Absval.Scalar d ->
    (* SOUND/nan: a possibly-nan value satisfies guards its interval
       image contradicts; never narrow through it *)
    if not (nan_possible (I.num_of_dom d)) then
      arr.(i) <- Absval.Scalar (f d) (* Dom.Empty propagates: infeasible *)
  | Absval.Vector _ -> ()

(* Meet [orig] with the float interval [n], keeping any bound the float
   image cannot express exactly (SOUND/int-overflow: the solver's
   saturating conversion would shave past-[big] values). *)
let meet_num (orig : Dom.t) (n : I.num) : Dom.t =
  if Float.is_nan n.nlo || Float.is_nan n.nhi then orig
  else
    match orig with
    | Dom.Dbool _ ->
      let bt = n.nlo <= 1.0 && 1.0 <= n.nhi in
      let bf = n.nlo <= 0.0 && 0.0 <= n.nhi in
      I.(dom_of_b3 (b3_meet (b3_of_dom orig) (b3 bt bf)))
    | Dom.Dint { lo; hi } ->
      let lo' =
        if n.nlo < -.big then lo else max lo (int_of_float (Float.ceil n.nlo))
      in
      let hi' =
        if n.nhi > big then hi else min hi (int_of_float (Float.floor n.nhi))
      in
      if lo' > hi' then raise Dom.Empty;
      Dom.Dint { lo = lo'; hi = hi' }
    | Dom.Dreal { lo; hi } ->
      let lo' = Float.max lo n.nlo and hi' = Float.min hi n.nhi in
      if lo' > hi' then raise Dom.Empty;
      Dom.Dreal { lo = lo'; hi = hi' }

let negate_cmp = function
  | Ir.Eq -> Ir.Ne
  | Ir.Ne -> Ir.Eq
  | Ir.Lt -> Ir.Ge
  | Ir.Le -> Ir.Gt
  | Ir.Gt -> Ir.Le
  | Ir.Ge -> Ir.Lt

(* Write the octagon's (possibly tightened) unary bounds for a cell
   back into its interval slot: the reduction half of the reduced
   product.  [Dom.Empty] propagates to the caller (infeasible arm). *)
let oct_writeback ctx env idx =
  match (ctx.c_oct, env.e_oct) with
  | Some ov, Some o ->
    let lo, hi = Octagon.bounds o idx in
    if lo > neg_infinity || hi < infinity then begin
      let scope, name, elem = ov.Octvars.ov_keys.(idx) in
      let n' =
        { I.nlo = lo; nhi = hi; nint = I.int_flag ov.Octvars.ov_ints.(idx) }
      in
      if elem < 0 then narrow_var ctx env scope name (fun d -> meet_num d n')
      else begin
        let arr, i = slot_of ctx env scope name in
        match arr.(i) with
        | Absval.Vector els when elem < Array.length els -> (
          match els.(elem) with
          | Absval.Scalar d when not (nan_possible (I.num_of_dom d)) ->
            let els' = Array.copy els in
            els'.(elem) <- Absval.Scalar (meet_num d n');
            arr.(i) <- Absval.Vector els'
          | Absval.Scalar _ | Absval.Vector _ -> ())
        | Absval.Vector _ | Absval.Scalar _ -> ()
      end
    end
  | _ -> ()

(* Record a guard comparison as an octagon constraint.  SOUND: strict
   comparisons tighten by 1 only when both cells are int; mixed or real
   comparisons keep the non-strict (weaker but sound) bound.  The
   callers guarantee neither side is possibly-nan. *)
let oct_refine_cmp ctx env op a b (na : I.num) (nb : I.num) =
  match (ctx.c_oct, env.e_oct) with
  | Some ov, Some o when within_big na && within_big nb -> (
    match (oct_term ov a, oct_term ov b) with
    | Some (ia, ca), Some (ib, cb) when ia <> ib ->
      let both_int = ov.Octvars.ov_ints.(ia) && ov.Octvars.ov_ints.(ib) in
      (* (v_a + ca) op (v_b + cb)  <=>  (v_a - v_b) op k, k = cb - ca *)
      let k = cb -. ca in
      let le () = Octagon.add_diff o ia ib k in
      let lt () = Octagon.add_diff o ia ib (if both_int then k -. 1.0 else k) in
      let ge () = Octagon.add_diff o ib ia (-.k) in
      let gt () =
        Octagon.add_diff o ib ia (if both_int then -.k -. 1.0 else -.k)
      in
      (match op with
       | Ir.Le -> le ()
       | Ir.Lt -> lt ()
       | Ir.Ge -> ge ()
       | Ir.Gt -> gt ()
       | Ir.Eq ->
         le ();
         ge ()
       | Ir.Ne -> ());
      if Octagon.is_bottom o then raise Dom.Empty;
      oct_writeback ctx env ia;
      oct_writeback ctx env ib
    | ((Some _ | None), _) -> ())
  | _ -> ()

let rec refine ctx env (e : Ir.expr) (want : bool) : unit =
  match e with
  | Ir.Const v -> if Value.to_bool v <> want then raise Dom.Empty
  | Ir.Var (scope, name) ->
    narrow_var ctx env scope name (fun d ->
        match d with
        | Dom.Dbool _ ->
          I.(
            dom_of_b3
              (b3_meet (b3_of_dom d) (if want then b3_true else b3_false)))
        | Dom.Dint { lo; hi } ->
          if want then
            (* (<> 0): prune a zero endpoint *)
            if lo = 0 && hi = 0 then raise Dom.Empty
            else if lo = 0 then Dom.Dint { lo = 1; hi }
            else if hi = 0 then Dom.Dint { lo; hi = -1 }
            else d
          else meet_num d { I.nlo = 0.0; nhi = 0.0; nint = 1.0 }
        | Dom.Dreal { lo; hi } ->
          if want then
            if lo = 0.0 && hi = 0.0 then raise Dom.Empty else d
          else meet_num d { I.nlo = 0.0; nhi = 0.0; nint = 0.0 })
  | Ir.Unop (Ir.Not, e1) -> refine ctx env e1 (not want)
  | Ir.And (a, b) ->
    if want then begin
      refine ctx env a true;
      refine ctx env b true
    end
    else begin
      let ba = b3_of_abs (eval ctx env a) in
      let bb = b3_of_abs (eval ctx env b) in
      if not ba.I.bf then refine ctx env b false
      else if not bb.I.bf then refine ctx env a false
    end
  | Ir.Or (a, b) ->
    if not want then begin
      refine ctx env a false;
      refine ctx env b false
    end
    else begin
      let ba = b3_of_abs (eval ctx env a) in
      let bb = b3_of_abs (eval ctx env b) in
      if not ba.I.bt then refine ctx env b true
      else if not bb.I.bt then refine ctx env a true
    end
  | Ir.Cmp (op, a, b) ->
    refine_cmp ctx env (if want then op else negate_cmp op) a b
  | Ir.Ite (c, t, e1) ->
    let bc = b3_of_abs (eval ctx env c) in
    if not bc.I.bf then refine ctx env t want
    else if not bc.I.bt then refine ctx env e1 want
  | Ir.Unop _ | Ir.Binop _ | Ir.Index _ -> ()

and refine_cmp ctx env op a b =
  let da = to_dom (eval ctx env a) and db = to_dom (eval ctx env b) in
  let na = I.num_of_dom da and nb = I.num_of_dom db in
  (* SOUND/nan: nan compares below everything, so a possibly-nan side
     makes both operands unconstrainable *)
  if nan_possible na || nan_possible nb then ()
  else begin
    let upd side n' =
      match side with
      | Ir.Var (s, nm) -> narrow_var ctx env s nm (fun d -> meet_num d n')
      | Ir.Const _ | Ir.Unop _ | Ir.Binop _ | Ir.Cmp _ | Ir.And _ | Ir.Or _
      | Ir.Ite _ | Ir.Index _ ->
        ()
    in
    let eps_lt hi = if I.is_int na && I.is_int nb then hi -. 1.0 else hi in
    let eps_gt lo = if I.is_int na && I.is_int nb then lo +. 1.0 else lo in
    oct_refine_cmp ctx env op a b na nb;
    match op with
    | Ir.Le ->
      upd a { na with I.nhi = Float.min na.I.nhi nb.I.nhi };
      upd b { nb with I.nlo = Float.max nb.I.nlo na.I.nlo }
    | Ir.Lt ->
      upd a { na with I.nhi = Float.min na.I.nhi (eps_lt nb.I.nhi) };
      upd b { nb with I.nlo = Float.max nb.I.nlo (eps_gt na.I.nlo) }
    | Ir.Ge ->
      upd a { na with I.nlo = Float.max na.I.nlo nb.I.nlo };
      upd b { nb with I.nhi = Float.min nb.I.nhi na.I.nhi }
    | Ir.Gt ->
      upd a { na with I.nlo = Float.max na.I.nlo (eps_gt nb.I.nlo) };
      upd b { nb with I.nhi = Float.min nb.I.nhi (eps_lt na.I.nhi) }
    | Ir.Eq ->
      let m = I.nmeet na nb in
      upd a { m with I.nint = na.I.nint };
      upd b { m with I.nint = nb.I.nint }
    | Ir.Ne ->
      let prune this other =
        if other.I.nlo = other.I.nhi && I.is_int this && I.is_int other then begin
          let k = other.I.nlo in
          if this.I.nlo = k && this.I.nhi = k then raise Dom.Empty
          else if this.I.nlo = k then Some { this with I.nlo = k +. 1.0 }
          else if this.I.nhi = k then Some { this with I.nhi = k -. 1.0 }
          else None
        end
        else None
      in
      (match prune na nb with Some na' -> upd a na' | None -> ());
      (match prune nb na with Some nb' -> upd b nb' | None -> ())
  end

(* ------------------------------------------------------------------ *)
(* Statement transfer                                                  *)

let eff_reach reach env = if reach = Must && env.e_err then May else reach

let is_chart_dispatch = function
  | Ir.Var (Ir.State, n) ->
    n = "loc" || (String.length n > 4 && String.sub n 0 4 = "loc.")
  | _ -> false

let record_branch ctx key r =
  if ctx.c_final then ctx.c_branch <- (key, r) :: ctx.c_branch

let record_guard ctx id gf =
  if ctx.c_final then ctx.c_guards <- (id, gf) :: ctx.c_guards

let rec lv_root = function
  | Ir.Lvar (s, n) -> (s, n)
  | Ir.Lindex (inner, _) -> lv_root inner

let rec rebase_lv lv new_root =
  match lv with
  | Ir.Lvar _ -> new_root
  | Ir.Lindex (inner, ix) -> Ir.Lindex (rebase_lv inner new_root, ix)

(* Rebuild the lvalue path rooted at a variable, applying [f] at the
   innermost position: a strong update when every index on the way is a
   valid singleton, a weak (join) update otherwise. *)
let rec update_lv ctx env (lv : Ir.lvalue) (f : Absval.t -> Absval.t) : unit =
  match lv with
  | Ir.Lvar (scope, name) ->
    let arr, i = slot_of ctx env scope name in
    arr.(i) <- f arr.(i)
  | Ir.Lindex (inner, ix) ->
    let ai = eval ctx env ix in
    update_lv ctx env inner (fun cur ->
        match cur with
        | Absval.Vector arr ->
          let n = Array.length arr in
          let lo, hi = index_range ai n in
          if hi < 0 || lo >= n then begin
            diag ctx Diag.Index_oob
              (Fmt.str "write index in [%d,%d] always outside [0,%d)" lo hi n);
            env.e_err <- true;
            cur (* the write always raises; nothing is stored *)
          end
          else begin
            if lo < 0 || hi >= n then begin
              diag ctx Diag.Index_may_oob
                (Fmt.str "write index in [%d,%d] may leave [0,%d)" lo hi n);
              env.e_err <- true
            end;
            let lo = max 0 lo and hi = min (n - 1) hi in
            let arr' = Array.copy arr in
            if lo = hi then arr'.(lo) <- f arr'.(lo)
            else
              for k = lo to hi do
                arr'.(k) <- Absval.join arr'.(k) (f arr'.(k))
              done;
            Absval.Vector arr'
          end
        | Absval.Scalar _ -> Value.type_error "analysis: Lindex on scalar")

let assign_stmt ctx env reach loc (lhs : Ir.lvalue) (v : Absval.t) =
  match lhs with
  | Ir.Lvar (Ir.Input, _) ->
    (* a direct whole-value store to an input raises at runtime *)
    env.e_err <- true
  | Ir.Lvar (((Ir.Output | Ir.State | Ir.Local) as scope), name) ->
    let _, i = slot_of ctx env scope name in
    let pend =
      match scope with
      | Ir.Output -> env.e_pout
      | Ir.State -> env.e_pst
      | Ir.Local -> env.e_plo
      | Ir.Input -> assert false
    in
    (match pend.(i) with
     | Some first when reach <> Never && ctx.c_final && ctx.c_live ->
       ctx.c_diags <-
         Diag.make Diag.Dead_store ~loc:first
           (Fmt.str "%s %s may be overwritten before any read"
              (Ir.scope_name scope) name)
         :: ctx.c_diags
     | Some _ | None -> ());
    pend.(i) <- Some loc;
    if scope = Ir.Local then env.e_lw.(i) <- 2;
    update_lv ctx env lhs (fun _ -> v)
  | Ir.Lindex _ ->
    (* a partial write both reads and writes the root: clear pending
       state, then strong/weak-update the element(s).  Note an Lindex
       whose root is an input does NOT raise — it mutates the input
       array in place. *)
    let scope, name = lv_root lhs in
    let _, i = slot_of ctx env scope name in
    (match scope with
     | Ir.Input -> ()
     | Ir.Output -> env.e_pout.(i) <- None
     | Ir.State -> env.e_pst.(i) <- None
     | Ir.Local ->
       env.e_plo.(i) <- None;
       if env.e_lw.(i) = 0 then env.e_lw.(i) <- 1);
    (match Hashtbl.find_opt ctx.ci.i_alias (scope, name) with
     | None -> update_lv ctx env lhs (fun _ -> v)
     | Some cls ->
       (* SOUND/aliasing: the slot may share its array with every
          member of its class — weak-update all of them *)
       List.iter
         (fun (s, n) ->
           let arr, j = slot_of ctx env s n in
           match arr.(j) with
           | Absval.Vector _ ->
             update_lv ctx env
               (rebase_lv lhs (Ir.Lvar (s, n)))
               (fun old -> Absval.join old v)
           | Absval.Scalar _ -> ())
         cls)

(* Octagon transfer for an assignment (runs after the interval store):
   an exact copy/shift when the rhs is a tracked cell plus an int
   constant and the interval result did not collapse; otherwise forget
   the destination cell and reseed its unary bounds from the interval
   result.  Destinations that may overlap tracked vector cells without
   naming one (whole-vector stores, weak or non-constant element
   writes) forget every cell of the root. *)
let oct_assign ctx env (lhs : Ir.lvalue) (rhs : Ir.expr) (v : Absval.t) =
  match (ctx.c_oct, env.e_oct) with
  | Some ov, Some o ->
    let seed idx av =
      match av with
      | Absval.Scalar d ->
        let n = I.num_of_dom d in
        if not (nan_possible n) then
          Octagon.meet_interval o idx ~lo:n.I.nlo ~hi:n.I.nhi
      | Absval.Vector _ -> ()
    in
    (* tracked cells of a vector form a contiguous prefix 0..j-1 *)
    let forget_elems s name av =
      let rec loop k =
        match Octvars.find ov (s, name, k) with
        | Some idx ->
          Octagon.forget o idx;
          (match av with
           | Some (Absval.Vector els) when k < Array.length els ->
             seed idx els.(k)
           | Some _ | None -> ());
          loop (k + 1)
        | None -> ()
      in
      loop 0
    in
    let exact =
      (* SOUND/int-overflow, SOUND/nan: a collapsed (or possibly-nan)
         stored interval means the concrete arithmetic may have wrapped
         or produced nan, so no exact relation may be recorded *)
      match v with
      | Absval.Scalar d ->
        let n = I.num_of_dom d in
        (not (nan_possible n)) && within_big n
      | Absval.Vector _ -> false
    in
    let dst =
      match lhs with
      | Ir.Lvar (Ir.Input, _) -> None
      | Ir.Lvar (s, name) -> Octvars.find ov (s, name, -1)
      | Ir.Lindex (Ir.Lvar (s, name), Ir.Const (Value.Int k)) ->
        Octvars.find ov (s, name, k)
      | Ir.Lindex _ -> None
    in
    (match (dst, lhs) with
     | Some d, _ ->
       (match oct_term ov rhs with
        | Some (src, off) when exact ->
          if src = d then Octagon.shift o d off
          else Octagon.assign_copy o ~dst:d ~src ~offset:off
        | Some _ | None -> Octagon.forget o d);
       seed d v
     | None, Ir.Lvar (Ir.Input, _) -> ()  (* the store raises *)
     | None, Ir.Lvar (s, name) -> forget_elems s name (Some v)
     | None, Ir.Lindex _ ->
       let s, name = lv_root lhs in
       forget_elems s name None)
  | _ -> ()

let rec exec_stmts ctx env reach prefix stmts =
  List.iteri
    (fun i s -> exec_stmt ctx env reach (Fmt.str "%s[%d]" prefix i) s)
    stmts

and exec_stmt ctx env reach loc (s : Ir.stmt) =
  ctx.c_loc <- loc;
  ctx.c_live <- ctx.c_final && reach <> Never;
  match s with
  | Ir.Assign (lhs, e) ->
    let v = eval ctx env e in
    assign_stmt ctx env reach loc lhs v;
    oct_assign ctx env lhs e v
  | Ir.If { id; cond; then_; else_ } ->
    let atoms = Ir.atoms_of_condition cond in
    let g_atoms =
      Array.of_list (List.map (fun a -> b3_of_abs (eval ctx env a)) atoms)
    in
    let gv = b3_of_abs (eval ctx env cond) in
    let dec_reach = eff_reach reach env in
    record_guard ctx id { g_reach = dec_reach; g_val = gv; g_atoms };
    if reach <> Never then
      if not gv.I.bf then
        diag ctx
          (if ctx.c_inchart then Diag.Dead_chart_transition
           else Diag.Const_true_guard)
          (Fmt.str "decision %d guard is always true" id)
      else if not gv.I.bt then
        diag ctx
          (if ctx.c_inchart then Diag.Dead_chart_transition
           else Diag.Const_false_guard)
          (Fmt.str "decision %d guard is always false" id);
    let branch want possible forced =
      if reach = Never || not possible then (Never, env_copy env)
      else begin
        let e' = env_copy env in
        match refine ctx e' cond want with
        | () -> ((if dec_reach = Must && forced then Must else May), e')
        | exception Dom.Empty -> (Never, e')
      end
    in
    let r_then, env_t = branch true gv.I.bt (not gv.I.bf) in
    let r_else, env_e = branch false gv.I.bf (not gv.I.bt) in
    record_branch ctx (id, Branch.Then) r_then;
    record_branch ctx (id, Branch.Else) r_else;
    exec_stmts ctx env_t r_then (loc ^ ".then") then_;
    exec_stmts ctx env_e r_else (loc ^ ".else") else_;
    ctx.c_loc <- loc;
    ctx.c_live <- ctx.c_final && reach <> Never;
    (match (r_then <> Never, r_else <> Never) with
     | true, true ->
       env_blit ~src:env_t ~dst:env;
       env_join_into ~src:env_e ~dst:env
     | true, false -> env_blit ~src:env_t ~dst:env
     | false, true -> env_blit ~src:env_e ~dst:env
     | false, false ->
       (* both sides infeasible: the decision cannot complete; keep the
          pre-state (a superset of nothing) *)
       ())
  | Ir.Switch { id; scrut; cases; default } ->
    let chart = is_chart_dispatch scrut in
    let ds = eval ctx env scrut in
    let slo, shi =
      match legal_num (I.ntrunc (num_of_abs ds)) with
      | Dom.Dint { lo; hi } -> (lo, hi)
      | Dom.Dbool _ | Dom.Dreal _ -> (min_int, max_int)
    in
    let dec_reach = eff_reach reach env in
    let labels = List.map fst cases in
    let in_scrut k = slo <= k && k <= shi in
    let default_possible =
      (* a value outside the label set must exist in [slo, shi]; only
         scan small ranges (the subtraction guards against overflow) *)
      let small = shi >= slo && shi - slo >= 0 && shi - slo < 4096 in
      if not small then true
      else begin
        let possible = ref false in
        for k = slo to shi do
          if not (List.mem k labels) then possible := true
        done;
        !possible
      end
    in
    let default_forced = not (List.exists in_scrut labels) in
    let refine_case k e' =
      (match scrut with
       | Ir.Var (s, n) ->
         narrow_var ctx e' s n (fun d ->
             meet_num d
               { I.nlo = float_of_int k; nhi = float_of_int k; nint = 1.0 })
       | _ -> ());
      match (ctx.c_oct, e'.e_oct) with
      | Some ov, Some o -> (
        (* [Exec] dispatches on [Value.to_int scrut]; for an int cell
           that truncation is the identity, so the case pins it *)
        match oct_term ov scrut with
        | Some (i, c) when ov.Octvars.ov_ints.(i) ->
          let v = float_of_int k -. c in
          Octagon.meet_interval o i ~lo:v ~hi:v;
          if Octagon.is_bottom o then raise Dom.Empty;
          oct_writeback ctx e' i
        | Some _ | None -> ())
      | _ -> ()
    in
    let refine_default e' =
      match scrut with
      | Ir.Var (s, n) ->
        narrow_var ctx e' s n (fun d ->
            match d with
            | Dom.Dint { lo; hi } ->
              let lo = ref lo and hi = ref hi in
              let continue_ = ref true in
              while !continue_ do
                continue_ := false;
                if !lo <= !hi && List.mem !lo labels then begin
                  incr lo;
                  continue_ := true
                end;
                if !lo <= !hi && List.mem !hi labels then begin
                  decr hi;
                  continue_ := true
                end
              done;
              if !lo > !hi then raise Dom.Empty;
              Dom.Dint { lo = !lo; hi = !hi }
            | Dom.Dbool _ | Dom.Dreal _ -> d)
      | _ -> ()
    in
    let arm prefix possible forced refine_arm body =
      let e' = env_copy env in
      let r =
        if reach = Never || not possible then Never
        else
          match refine_arm e' with
          | () -> if dec_reach = Must && forced then Must else May
          | exception Dom.Empty -> Never
      in
      exec_stmts ctx e' r prefix body;
      (r, e')
    in
    let saved_chart = ctx.c_inchart in
    if chart then ctx.c_inchart <- true;
    let results =
      List.map
        (fun (k, body) ->
          let r, e' =
            arm
              (Fmt.str "%s.case%d" loc k)
              (in_scrut k)
              (slo = k && shi = k)
              (refine_case k) body
          in
          ctx.c_loc <- loc;
          ctx.c_live <- ctx.c_final && reach <> Never;
          record_branch ctx (id, Branch.Case k) r;
          if r = Never && reach <> Never then
            diag ctx
              (if chart then Diag.Dead_chart_state else Diag.Dead_case)
              (Fmt.str "decision %d case %d is unreachable" id k);
          (r, e'))
        cases
    in
    let r_def, env_def =
      arm (loc ^ ".default") default_possible default_forced refine_default
        default
    in
    ctx.c_loc <- loc;
    ctx.c_live <- ctx.c_final && reach <> Never;
    record_branch ctx (id, Branch.Default) r_def;
    if r_def = Never && reach <> Never then
      diag ctx Diag.Dead_default
        (Fmt.str "decision %d default is unreachable" id);
    ctx.c_inchart <- saved_chart;
    (match
       List.filter (fun (r, _) -> r <> Never) (results @ [ (r_def, env_def) ])
     with
     | [] -> () (* every arm infeasible: keep the pre-state *)
     | (_, first) :: rest ->
       env_blit ~src:first ~dst:env;
       List.iter (fun (_, e') -> env_join_into ~src:e' ~dst:env) rest)

(* ------------------------------------------------------------------ *)
(* Fixpoint driver                                                     *)

let join_iters = 24

let rec count_scalars = function
  | Absval.Scalar _ -> 1
  | Absval.Vector a ->
    Array.fold_left (fun acc v -> acc + count_scalars v) 0 a

let fresh_ctx info octvars final =
  {
    ci = info;
    c_oct = octvars;
    c_final = final;
    c_live = false;
    c_loc = "";
    c_inchart = false;
    c_diags = [];
    c_branch = [];
    c_guards = [];
  }

(* the abstract value currently held by a tracked cell, if scalar *)
let cell_absval (si : scope_info) (arr : Absval.t array) name elem =
  match Hashtbl.find_opt si.si_index name with
  | None -> None
  | Some i ->
    if elem < 0 then Some arr.(i)
    else (
      match arr.(i) with
      | Absval.Vector els when elem < Array.length els -> Some els.(elem)
      | Absval.Vector _ | Absval.Scalar _ -> None)

(* refresh the unary bounds of every tracked cell from an interval
   lookup (raw stores), then close once *)
let oct_seed (ov : Octvars.t) o lookup =
  Array.iteri
    (fun idx key ->
      match lookup key with
      | Some (Absval.Scalar d) ->
        let n = I.num_of_dom d in
        if not (nan_possible n) then
          Octagon.constrain_raw o idx ~lo:n.I.nlo ~hi:n.I.nhi
      | Some (Absval.Vector _) | None -> ())
    ov.Octvars.ov_keys;
  Octagon.close o

let env_lookup info env ((scope, name, elem) : Ir.scope * string * int) =
  let si, arr =
    match scope with
    | Ir.Input -> (info.i_in, env.e_in)
    | Ir.Output -> (info.i_out, env.e_out)
    | Ir.State -> (info.i_st, env.e_st)
    | Ir.Local -> (info.i_lo, env.e_lo)
  in
  cell_absval si arr name elem

let result_of ctx (state : Absval.t array) env ~iterations ~widenings =
  let prog = ctx.ci.i_prog in
  {
    r_prog = prog;
    r_iterations = iterations;
    r_widenings = widenings;
    r_branch_reach = List.rev ctx.c_branch;
    r_guards = List.rev ctx.c_guards;
    r_diags = Diag.sort ctx.c_diags;
    r_state =
      List.mapi (fun i ((v : Ir.var), _) -> (v.name, state.(i))) prog.Ir.states;
    r_out =
      List.mapi (fun i (v : Ir.var) -> (v.name, env.e_out.(i))) prog.Ir.outputs;
  }

let analyze ?(config = default_config) (prog : Ir.program) :
    result =
  Telemetry.Counter.incr tel_runs;
  Telemetry.Span.with_ ~note:(fun () -> prog.Ir.name) tel_span @@ fun () ->
  let info = build_info prog in
  let octvars =
    match config.domain with
    | `Octagon -> Some (Octvars.build info)
    | `Interval -> None
  in
  let ctx = fresh_ctx info octvars false in
  let n_state = Array.length info.i_state_init in
  let n_bounds =
    2 * Array.fold_left (fun acc v -> acc + count_scalars v) 0 info.i_state_init
  in
  (* widening moves each bound at most once to its top (plus one kind
     collapse per slot), so this cap is never reached in practice; the
     octagon term covers its own matrix-entry promotions to infinity *)
  let hard_cap =
    join_iters + n_bounds + n_state + 8
    + (match octvars with
       | Some ov -> 8 * Array.length ov.Octvars.ov_keys
       | None -> 0)
  in
  let state = Array.copy info.i_state_init in
  let oct_state =
    ref
      (Option.map
         (fun ov ->
           let o = Octagon.create ~ints:ov.Octvars.ov_ints in
           oct_seed ov o (fun (scope, name, elem) ->
               if scope = Ir.State then
                 cell_absval info.i_st state name elem
               else None);
           o)
         octvars)
  in
  let fresh_env () =
    let env = env_make info state in
    (match (octvars, !oct_state) with
     | Some ov, Some os ->
       let o = Octagon.copy os in
       (* meet in the current interval image of every cell; this also
          re-closes the matrix (open after widening) *)
       oct_seed ov o (env_lookup info env);
       env.e_oct <- Some o
     | _ -> ());
    env
  in
  let iterations = ref 0 in
  let widenings = ref 0 in
  let stable = ref false in
  while (not !stable) && !iterations < hard_cap do
    incr iterations;
    let env = fresh_env () in
    exec_stmts ctx env Must "body" prog.Ir.body;
    let next = Array.map2 Absval.join state env.e_st in
    let next =
      if !iterations > join_iters then begin
        incr widenings;
        Array.map2 Absval.widen state next
      end
      else next
    in
    let oct_stable =
      match (!oct_state, env.e_oct) with
      | Some os, Some o ->
        (* project the post-step octagon onto the persistent state
           cells, then join/widen entrywise.  Entries only ever grow,
           and widening sends a grown entry straight to infinity, so
           this terminates alongside the interval iteration. *)
        Array.iteri
          (fun idx ((scope, _, _) : Ir.scope * string * int) ->
            if scope <> Ir.State then Octagon.forget o idx)
          (Option.get octvars).Octvars.ov_keys;
        let nxt =
          if !iterations > join_iters then Octagon.widen os o
          else Octagon.join os o
        in
        let same = Octagon.equal os nxt in
        oct_state := Some nxt;
        same
      | _ -> true
    in
    if Array.for_all2 Absval.equal state next && oct_stable then stable := true
    else Array.blit next 0 state 0 n_state
  done;
  if not !stable then begin
    (* safety net: widening makes this unreachable, but collapse to the
       value tops rather than report unsound facts if it ever fires *)
    Array.iteri (fun i v -> state.(i) <- Absval.top_like v) state;
    oct_state :=
      Option.map
        (fun ov -> Octagon.create ~ints:ov.Octvars.ov_ints)
        octvars
  end;
  (* final recording pass over the stabilized state *)
  ctx.c_final <- true;
  let env = fresh_env () in
  exec_stmts ctx env Must "body" prog.Ir.body;
  incr iterations;
  Telemetry.Counter.add tel_iterations !iterations;
  Telemetry.Counter.add tel_widenings !widenings;
  result_of ctx state env ~iterations:!iterations ~widenings:!widenings

(* One recording pass from an exact reached snapshot.  The [Must] facts
   it reports hold for the single step taken from [state]; because the
   snapshot is concretely reachable, such facts witness reachability.
   Its [Never] facts are only step-local and must NOT be promoted to
   global deadness. *)
let record_at ?(config = default_config) (prog : Ir.program)
    ~(state : Value.t array) : result =
  Telemetry.Counter.incr tel_runs;
  let info = build_info prog in
  let octvars =
    match config.domain with
    | `Octagon -> Some (Octvars.build info)
    | `Interval -> None
  in
  let st =
    if Array.length state = Array.length info.i_state_init then
      Array.map Absval.of_value state
    else Array.copy info.i_state_init
  in
  let ctx = fresh_ctx info octvars true in
  let env = env_make info st in
  (match octvars with
   | Some ov ->
     let o = Octagon.create ~ints:ov.Octvars.ov_ints in
     oct_seed ov o (env_lookup info env);
     env.e_oct <- Some o
   | None -> ());
  exec_stmts ctx env Must "body" prog.Ir.body;
  result_of ctx st env ~iterations:1 ~widenings:0

let branch_reach r key =
  match List.assoc_opt key r.r_branch_reach with Some x -> x | None -> May

let guard_fact r id = List.assoc_opt id r.r_guards
