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
   weakly update the whole class unless it is a singleton.

   SOUND/int-cells: execution keeps a real stored into an int-declared
   variable, so only int-only cells ([int_only_slots]) get the
   octagon's integer reasoning. *)

module Ir = Slim.Ir
module L = Slim.Lower
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

(* What the analyzer knows of a program's {!Slim.Lower} form, by slot. *)
type info = {
  i_prog : Ir.program;
  i_lp : L.t;
  i_consts : Absval.t array;  (* each constant, converted once *)
  i_template : Absval.t array;
      (* the register file before a step: input tops, declared state
         inits, local and output defaults *)
  i_alias : int list array;
      (* may-alias class of each element-written vector root slot;
         empty for roots whose class is a singleton (strong updates) *)
  i_int_only : bool array;
      (* per slot: declared int and every store into it is an [Int] *)
}

(* Every assignment to a declared root, as (root slot, lvalue, rhs). *)
let stores (lp : L.t) =
  L.fold
    (fun acc -> function
      | L.Assign (lhs, e) -> (
        match L.lvalue_root lhs with Some r -> (r, lhs, e) :: acc | None -> acc)
      | L.If _ | L.Switch _ -> acc)
    [] lp.body

(* May-alias classes: union the target of every whole-value assignment
   with the variables (and vector literals) its right-hand side could
   alias.  Only classes that are actually element-written matter.  Keys
   are slots; key [n_slots] stands for every vector literal.  Returns
   the classes and whether some vector literal may be mutated in place
   through an alias. *)
let alias_classes (lp : L.t) stores =
  let rec roots acc = function
    | L.Slot s -> s :: acc
    | L.Ite (_, a, b) -> roots (roots acc a) b
    | L.Index (v, _) -> roots acc v
    | L.Const c -> (
      match lp.consts.(c) with
      | Value.Vec _ -> lp.n_slots :: acc
      | Value.Bool _ | Value.Int _ | Value.Real _ -> acc)
    | L.Unbound _ | L.Unop _ | L.Binop _ | L.Cmp _ | L.And _ | L.Or _ -> acc
  in
  let parent = Array.init (lp.n_slots + 1) Fun.id in
  (* representative lookup with path compression *)
  let rec find k =
    let p = parent.(k) in
    if p = k then k
    else begin
      let r = find p in
      parent.(k) <- r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  let mutated =
    List.fold_left
      (fun acc (r, lhs, e) ->
        List.iter (union r) (roots [] e);
        match lhs with L.Lindex _ -> r :: acc | L.Lslot _ | L.Lunbound _ -> acc)
      [] stores
  in
  let alias = Array.make lp.n_slots [] in
  let consts_mutable = ref false in
  List.iter
    (fun r ->
      let rep = find r in
      if find lp.n_slots = rep then consts_mutable := true;
      let cls = List.filter (fun s -> find s = rep) (List.init lp.n_slots Fun.id) in
      if List.length cls > 1 then List.iter (fun s -> alias.(s) <- cls) cls)
    mutated;
  (alias, !consts_mutable)

(* SOUND/int-cells: a slot is int-only when it is declared int, starts
   as an [Int] and no store can put anything else into it (a fixpoint
   over [stores], closed over reads of slots that are not int-only). *)
let int_only_slots (prog : Ir.program) (lp : L.t) stores =
  let rec int_value = function
    | Value.Int _ -> true
    | Value.Vec a -> Array.for_all int_value a
    | Value.Bool _ | Value.Real _ -> false
  in
  (* declared int: the type's default is an [Int] (or a vector of them) *)
  let ok =
    Array.map (fun (v : Ir.var) -> int_value (Value.default_of_ty v.ty)) lp.vars
  in
  List.iteri
    (fun k (_, init) ->
      if not (int_value init) then ok.(lp.n_inputs + k) <- false)
    prog.states;
  (* every value of [e] is an [Int] (or a vector of them); an unbound
     read raises, so it stores nothing *)
  let rec ints = function
    | L.Const c -> int_value lp.consts.(c)
    | L.Slot s -> ok.(s)
    | L.Unbound _ | L.Unop (Ir.To_int, _) -> true
    | L.Unop ((Ir.Neg | Ir.Abs_op | Ir.Floor | Ir.Ceil), a) | L.Index (a, _) ->
      ints a
    | L.Unop ((Ir.Not | Ir.To_real), _) | L.Cmp _ | L.And _ | L.Or _ -> false
    | L.Binop (_, a, b) | L.Ite (_, a, b) -> ints a && ints b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r, _, e) ->
        if ok.(r) && not (ints e) then begin
          ok.(r) <- false;
          changed := true
        end)
      stores
  done;
  ok

let build_info (prog : Ir.program) =
  let lp = Slim.Exec.lowered (Slim.Exec.handle prog) in
  let stores = stores lp in
  let alias, consts_mutable = alias_classes lp stores in
  let inits = Array.of_list (List.map snd prog.states) in
  {
    i_prog = prog;
    i_lp = lp;
    i_consts =
      Array.map
        (fun v ->
          let a = Absval.of_value v in
          match v with
          | Value.Vec _ when consts_mutable ->
            (* SOUND/aliasing: a vector literal stored into a slot and
               then element-written is mutated in place, so later
               evaluations of the literal may see arbitrary contents *)
            Absval.top_like a
          | Value.Bool _ | Value.Int _ | Value.Real _ | Value.Vec _ -> a)
        lp.consts;
    i_template =
      Array.mapi
        (fun s (v : Ir.var) ->
          match L.scope_of lp s with
          | Ir.Input -> Absval.top_of_ty v.ty
          | Ir.State -> Absval.of_value inits.(s - lp.n_inputs)
          | Ir.Local | Ir.Output -> Absval.of_value (Value.default_of_ty v.ty))
        lp.vars;
    i_alias = alias;
    i_int_only = int_only_slots prog lp stores;
  }

(* ------------------------------------------------------------------ *)
(* Analyzer configuration and octagon variable universe                *)

type domain = [ `Interval | `Octagon ]
type config = { domain : domain }

let default_config = { domain = `Interval }

(* The relational domain tracks a bounded universe of numeric cells:
   every int/real scalar (inputs, states, locals), then the elements of
   State-scope vectors outside any may-alias class (their element
   writes are strong, so exact relations survive).  A cell is a slot
   and an element index, [-1] for a scalar cell. *)
module Octvars = struct
  type t = {
    ov_keys : (int * int) array;
    ov_ints : bool array;  (* int-only cells: integer tightening is sound *)
    ov_base : int array;
        (* per slot: its first cell, or -1; element [k] of a vector is
           cell [ov_base + k] when it is tracked *)
  }

  let max_vars = 48

  let build (info : info) =
    let lp = info.i_lp in
    let keys = ref [] in
    let count = ref 0 in
    let base = Array.make lp.n_slots (-1) in
    let push s elem is_int =
      if !count < max_vars then begin
        keys := ((s, elem), is_int) :: !keys;
        if elem <= 0 then base.(s) <- !count;
        incr count
      end
      else Telemetry.Counter.incr tel_octvars_dropped
    in
    (* [i_int_only] is false for every real-declared slot *)
    for s = 0 to lp.output_base - 1 do
      match lp.vars.(s).ty with
      | Value.Tint _ | Value.Treal _ -> push s (-1) info.i_int_only.(s)
      | Value.Tbool | Value.Tvec _ -> ()
    done;
    for s = lp.n_inputs to lp.local_base - 1 do
      match lp.vars.(s).ty with
      | Value.Tvec ((Value.Tint _ | Value.Treal _), len) when info.i_alias.(s) = [] ->
        for k = 0 to len - 1 do
          push s k info.i_int_only.(s)
        done
      | Value.Tbool | Value.Tint _ | Value.Treal _ | Value.Tvec _ -> ()
    done;
    let l = List.rev !keys in
    {
      ov_keys = Array.of_list (List.map fst l);
      ov_ints = Array.of_list (List.map snd l);
      ov_base = base;
    }

  let find t s elem =
    let c = t.ov_base.(s) + max elem 0 in
    if t.ov_base.(s) < 0 || c >= Array.length t.ov_keys then None
    else
      let s', elem' = t.ov_keys.(c) in
      if s' = s && elem' = elem then Some c else None
end

(* ------------------------------------------------------------------ *)
(* Abstract environments                                               *)

type env = {
  e_regs : Absval.t array;  (* by slot *)
  e_lw : int array;
      (* per local (slot minus [local_base]): write status, 0 never,
         1 maybe, 2 definitely *)
  e_pend : string option array;  (* per slot: an unread pending write *)
  mutable e_err : bool;  (* a step-aborting Eval_error may have occurred *)
  mutable e_oct : Octagon.t option;  (* relational companion (octagon) *)
}

let env_make info state =
  let lp = info.i_lp in
  let regs = Array.copy info.i_template in
  Array.blit state 0 regs lp.L.n_inputs (Array.length state);
  {
    e_regs = regs;
    e_lw = Array.make (lp.output_base - lp.local_base) 0;
    e_pend = Array.make lp.n_slots None;
    e_err = false;
    e_oct = None;
  }

let env_copy e =
  {
    e_regs = Array.copy e.e_regs;
    e_lw = Array.copy e.e_lw;
    e_pend = Array.copy e.e_pend;
    e_err = e.e_err;
    e_oct = Option.map Octagon.copy e.e_oct;
  }

let env_blit ~src ~dst =
  let b a b = Array.blit a 0 b 0 (Array.length a) in
  b src.e_regs dst.e_regs;
  b src.e_lw dst.e_lw;
  b src.e_pend dst.e_pend;
  dst.e_err <- src.e_err;
  dst.e_oct <- src.e_oct

(* join [src] into [dst] pointwise *)
let env_join_into ~src ~dst =
  Array.iteri (fun i v -> dst.e_regs.(i) <- Absval.join v dst.e_regs.(i)) src.e_regs;
  Array.iteri (fun i v -> if v <> dst.e_lw.(i) then dst.e_lw.(i) <- 1) src.e_lw;
  Array.iteri (fun i v -> if v <> dst.e_pend.(i) then dst.e_pend.(i) <- None) src.e_pend;
  dst.e_err <- src.e_err || dst.e_err;
  (* [src] is discarded after the join, so its octagon takes the result *)
  dst.e_oct <-
    (match (src.e_oct, dst.e_oct) with
     | Some a, Some b ->
       Octagon.join_inplace a b;
       src.e_oct
     | (Some _ | None), _ -> None)

(* ------------------------------------------------------------------ *)
(* Recording context                                                   *)

type ctx = {
  ci : info;
  c_oct : Octvars.t option;  (* octagon universe; [None] = interval domain *)
  mutable c_final : bool;  (* recording pass over the stabilized state *)
  mutable c_live : bool;  (* current statement's reach <> Never *)
  mutable c_loc : string;
      (* current statement path, for eval-site diags; empty before the
         recording pass *)
  mutable c_inchart : bool;  (* inside a chart state-dispatch arm *)
  mutable c_diags : Diag.t list;
  mutable c_branch : (Branch.key * reach) list;  (* reversed *)
  mutable c_guards : (int * guard_fact) list;  (* reversed *)
}

(* [diag ctx code fmt args]: the message is formatted only when the
   diagnostic is recorded *)
let diag ctx code fmt =
  if ctx.c_final && ctx.c_live then
    Fmt.kstr
      (fun msg -> ctx.c_diags <- Diag.make code ~loc:ctx.c_loc msg :: ctx.c_diags)
      fmt
  else Format.ikfprintf ignore Format.err_formatter fmt

(* statement paths are read only by recorded diagnostics, so the
   passes before the recording one leave them empty *)
let sub_loc ctx loc suffix = if ctx.c_final then loc ^ suffix else ""

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
let int_const (info : info) = function
  | L.Const c -> (
    match info.i_lp.consts.(c) with Value.Int k -> Some k | _ -> None)
  | _ -> None

let oct_term info (ov : Octvars.t) (e : L.expr) : (int * float) option =
  let cell = function
    | L.Slot s -> Octvars.find ov s (-1)
    | L.Index (L.Slot s, ix) -> (
      match int_const info ix with
      | Some k -> Octvars.find ov s k
      | None -> None)
    | _ -> None
  in
  let int_cell v c =
    match cell v with
    | Some i when ov.Octvars.ov_ints.(i) -> Some (i, c)
    | Some _ | None -> None
  in
  match e with
  | L.Binop (Ir.Add, a, b) -> (
    match (int_const info b, int_const info a) with
    | Some k, _ -> int_cell a (float_of_int k)
    | None, Some k -> int_cell b (float_of_int k)
    | None, None -> None)
  | L.Binop (Ir.Sub, v, k) -> (
    match int_const info k with
    | Some k -> int_cell v (-.float_of_int k)
    | None -> None)
  | _ -> Option.map (fun i -> (i, 0.0)) (cell e)

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
      match (oct_term ctx.ci ov a, oct_term ctx.ci ov b) with
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

let unbound scope name =
  Value.type_error "analysis: unbound %s variable %s" (Ir.scope_name scope) name

let read_slot ctx env s =
  let lp = ctx.ci.i_lp in
  if s >= lp.L.n_inputs then env.e_pend.(s) <- None;
  if
    ctx.c_live && s >= lp.local_base && s < lp.output_base
    && env.e_lw.(s - lp.local_base) = 0
  then
    diag ctx Diag.Uninit_local_read
      "local %s read before any write (default value)" lp.vars.(s).name;
  env.e_regs.(s)

let eval_unop op a =
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
let index_range ai n =
  match legal_num (I.ntrunc (num_of_abs ai)) with
  | Dom.Dint { lo; hi } -> (lo, hi)
  | Dom.Dbool _ | Dom.Dreal _ -> (0, n - 1)

let rec eval ctx env (e : L.expr) : Absval.t =
  match e with
  | L.Const c -> ctx.ci.i_consts.(c)
  | L.Slot s -> read_slot ctx env s
  | L.Unbound (scope, name) -> unbound scope name
  | L.Unop (op, e1) -> eval_unop op (eval ctx env e1)
  | L.Binop (op, a, b) ->
    let va = eval ctx env a in
    let vb = eval ctx env b in
    binop_abs env op (num_of_abs va) (num_of_abs vb)
  | L.Cmp (op, a, b) ->
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
  | L.And (a, b) ->
    (* no short-circuit: Exec evaluates both operands *)
    let ba = b3_of_abs (eval ctx env a) in
    let bb = b3_of_abs (eval ctx env b) in
    sc (I.dom_of_b3 (I.b3_and ba bb))
  | L.Or (a, b) ->
    let ba = b3_of_abs (eval ctx env a) in
    let bb = b3_of_abs (eval ctx env b) in
    sc (I.dom_of_b3 (I.b3_or ba bb))
  | L.Ite (c, t, e1) ->
    let bc = b3_of_abs (eval ctx env c) in
    if not bc.I.bf then eval ctx env t
    else if not bc.I.bt then eval ctx env e1
    else Absval.join (eval ctx env t) (eval ctx env e1)
  | L.Index (v, ix) ->
    let av = eval ctx env v in
    let ai = eval ctx env ix in
    (match av with
     | Absval.Vector arr ->
       let n = Array.length arr in
       let lo, hi = index_range ai n in
       if hi < 0 || lo >= n then begin
         diag ctx Diag.Index_oob
           "index in [%d,%d] always outside [0,%d)" lo hi n;
         env.e_err <- true;
         (* the access always raises; any value is a sound stand-in *)
         if n > 0 then Absval.top_like arr.(0) else sc Absval.int_top
       end
       else begin
         if lo < 0 || hi >= n then begin
           diag ctx Diag.Index_may_oob
             "index in [%d,%d] may leave [0,%d)" lo hi n;
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

(* ------------------------------------------------------------------ *)
(* Guard refinement (backward narrowing on variable leaves)            *)

let narrow_slot env s (f : Dom.t -> Dom.t) =
  match env.e_regs.(s) with
  | Absval.Scalar d ->
    (* SOUND/nan: a possibly-nan value satisfies guards its interval
       image contradicts; never narrow through it *)
    if not (nan_possible (I.num_of_dom d)) then
      env.e_regs.(s) <- Absval.Scalar (f d) (* Dom.Empty propagates: infeasible *)
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
      let s, elem = ov.Octvars.ov_keys.(idx) in
      let n' =
        { I.nlo = lo; nhi = hi; nint = I.int_flag ov.Octvars.ov_ints.(idx) }
      in
      if elem < 0 then narrow_slot env s (fun d -> meet_num d n')
      else begin
        match env.e_regs.(s) with
        | Absval.Vector els when elem < Array.length els -> (
          match els.(elem) with
          | Absval.Scalar d when not (nan_possible (I.num_of_dom d)) ->
            let els' = Array.copy els in
            els'.(elem) <- Absval.Scalar (meet_num d n');
            env.e_regs.(s) <- Absval.Vector els'
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
    match (oct_term ctx.ci ov a, oct_term ctx.ci ov b) with
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

let rec refine ctx env (e : L.expr) (want : bool) : unit =
  match e with
  | L.Const c -> if Value.to_bool ctx.ci.i_lp.consts.(c) <> want then raise Dom.Empty
  | L.Unbound (scope, name) -> unbound scope name
  | L.Slot s ->
    narrow_slot env s (fun d ->
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
  | L.Unop (Ir.Not, e1) -> refine ctx env e1 (not want)
  | L.And (a, b) ->
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
  | L.Or (a, b) ->
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
  | L.Cmp (op, a, b) ->
    refine_cmp ctx env (if want then op else negate_cmp op) a b
  | L.Ite (c, t, e1) ->
    let bc = b3_of_abs (eval ctx env c) in
    if not bc.I.bf then refine ctx env t want
    else if not bc.I.bt then refine ctx env e1 want
  | L.Unop _ | L.Binop _ | L.Index _ -> ()

and refine_cmp ctx env op a b =
  let da = to_dom (eval ctx env a) and db = to_dom (eval ctx env b) in
  let na = I.num_of_dom da and nb = I.num_of_dom db in
  (* SOUND/nan: nan compares below everything, so a possibly-nan side
     makes both operands unconstrainable *)
  if nan_possible na || nan_possible nb then ()
  else begin
    let upd side n' =
      match side with
      | L.Slot s -> narrow_slot env s (fun d -> meet_num d n')
      | L.Const _ | L.Unbound _ | L.Unop _ | L.Binop _ | L.Cmp _ | L.And _
      | L.Or _ | L.Ite _ | L.Index _ ->
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

let is_chart_dispatch (lp : L.t) = function
  | L.Slot s when L.scope_of lp s = Ir.State ->
    let n = lp.vars.(s).name in
    n = "loc" || (String.length n > 4 && String.sub n 0 4 = "loc.")
  | _ -> false

let record_branch ctx key r =
  if ctx.c_final then ctx.c_branch <- (key, r) :: ctx.c_branch

let record_guard ctx id gf =
  if ctx.c_final then ctx.c_guards <- (id, gf) :: ctx.c_guards

let rec rebase_lv lv new_root =
  match lv with
  | L.Lslot _ | L.Lunbound _ -> new_root
  | L.Lindex (inner, ix) -> L.Lindex (rebase_lv inner new_root, ix)

(* Rebuild the lvalue path rooted at a variable, applying [f] at the
   innermost position: a strong update when every index on the way is a
   valid singleton, a weak (join) update otherwise. *)
let rec update_lv ctx env (lv : L.lvalue) (f : Absval.t -> Absval.t) : unit =
  match lv with
  | L.Lslot s -> env.e_regs.(s) <- f env.e_regs.(s)
  | L.Lunbound (scope, name) -> unbound scope name
  | L.Lindex (inner, ix) ->
    let ai = eval ctx env ix in
    update_lv ctx env inner (fun cur ->
        match cur with
        | Absval.Vector arr ->
          let n = Array.length arr in
          let lo, hi = index_range ai n in
          if hi < 0 || lo >= n then begin
            diag ctx Diag.Index_oob
              "write index in [%d,%d] always outside [0,%d)" lo hi n;
            env.e_err <- true;
            cur (* the write always raises; nothing is stored *)
          end
          else begin
            if lo < 0 || hi >= n then begin
              diag ctx Diag.Index_may_oob
                "write index in [%d,%d] may leave [0,%d)" lo hi n;
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

let assign_stmt ctx env reach loc (lhs : L.lvalue) (v : Absval.t) =
  let lp = ctx.ci.i_lp in
  match lhs with
  | L.Lslot s when s < lp.L.n_inputs ->
    (* a direct whole-value store to an input raises at runtime *)
    env.e_err <- true
  | L.Lunbound (Ir.Input, _) -> env.e_err <- true
  | L.Lunbound (scope, name) -> unbound scope name
  | L.Lslot s ->
    (match env.e_pend.(s) with
     | Some first when reach <> Never && ctx.c_final && ctx.c_live ->
       ctx.c_diags <-
         Diag.make Diag.Dead_store ~loc:first
           (Fmt.str "%s %s may be overwritten before any read"
              (Ir.scope_name (L.scope_of lp s)) lp.vars.(s).name)
         :: ctx.c_diags
     | Some _ | None -> ());
    env.e_pend.(s) <- Some loc;
    if s >= lp.local_base && s < lp.output_base then
      env.e_lw.(s - lp.local_base) <- 2;
    update_lv ctx env lhs (fun _ -> v)
  | L.Lindex _ -> (
    (* a partial write both reads and writes the root: clear pending
       state, then strong/weak-update the element(s).  Note an Lindex
       whose root is an input does NOT raise — it mutates the input
       array in place. *)
    match L.lvalue_root lhs with
    | None -> update_lv ctx env lhs (fun _ -> v) (* raises at the root *)
    | Some s ->
      if s >= lp.n_inputs then env.e_pend.(s) <- None;
      if s >= lp.local_base && s < lp.output_base then begin
        let i = s - lp.local_base in
        if env.e_lw.(i) = 0 then env.e_lw.(i) <- 1
      end;
      (match ctx.ci.i_alias.(s) with
       | [] -> update_lv ctx env lhs (fun _ -> v)
       | cls ->
         (* SOUND/aliasing: the slot may share its array with every
            member of its class — weak-update all of them *)
         List.iter
           (fun m ->
             match env.e_regs.(m) with
             | Absval.Vector _ ->
               update_lv ctx env (rebase_lv lhs (L.Lslot m)) (fun old ->
                   Absval.join old v)
             | Absval.Scalar _ -> ())
           cls))

(* Octagon transfer for an assignment (runs after the interval store):
   an exact copy/shift when the rhs is a tracked cell plus an int
   constant and the interval result did not collapse; otherwise forget
   the destination cell and reseed its unary bounds from the interval
   result.  Destinations that may overlap tracked vector cells without
   naming one (whole-vector stores, weak or non-constant element
   writes) forget every cell of the root. *)
let oct_assign ctx env (lhs : L.lvalue) (rhs : L.expr) (v : Absval.t) =
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
    let forget_elems s av =
      let rec loop k =
        match Octvars.find ov s k with
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
    let input s = s < ctx.ci.i_lp.n_inputs in
    let dst =
      match lhs with
      | L.Lslot s when input s -> None
      | L.Lslot s -> Octvars.find ov s (-1)
      | L.Lindex (L.Lslot s, ix) -> (
        match int_const ctx.ci ix with
        | Some k -> Octvars.find ov s k
        | None -> None)
      | L.Lunbound _ | L.Lindex _ -> None
    in
    (match (dst, lhs) with
     | Some d, _ ->
       (match oct_term ctx.ci ov rhs with
        | Some (src, off) when exact ->
          if src = d then Octagon.shift o d off
          else Octagon.assign_copy o ~dst:d ~src ~offset:off
        | Some _ | None -> Octagon.forget o d);
       seed d v
     | None, L.Lslot s when input s -> ()  (* the store raises *)
     | None, L.Lslot s -> forget_elems s (Some v)
     | None, (L.Lunbound _ | L.Lindex _) -> (
       match L.lvalue_root lhs with
       | Some s -> forget_elems s None
       | None -> ()))
  | _ -> ()

let rec exec_stmts ctx env reach prefix stmts =
  List.iteri
    (fun i s ->
      let loc = if ctx.c_final then Fmt.str "%s[%d]" prefix i else "" in
      exec_stmt ctx env reach loc s)
    stmts

and exec_stmt ctx env reach loc (s : L.stmt) =
  ctx.c_loc <- loc;
  ctx.c_live <- ctx.c_final && reach <> Never;
  match s with
  | L.Assign (lhs, e) ->
    let v = eval ctx env e in
    assign_stmt ctx env reach loc lhs v;
    oct_assign ctx env lhs e v
  | L.If { id; cond; atoms; then_; else_; _ } ->
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
          "decision %d guard is always true" id
      else if not gv.I.bt then
        diag ctx
          (if ctx.c_inchart then Diag.Dead_chart_transition
           else Diag.Const_false_guard)
          "decision %d guard is always false" id;
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
    exec_stmts ctx env_t r_then (sub_loc ctx loc ".then") then_;
    exec_stmts ctx env_e r_else (sub_loc ctx loc ".else") else_;
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
  | L.Switch { id; scrut; labels; cases; default; _ } ->
    let chart = is_chart_dispatch ctx.ci.i_lp scrut in
    let ds = eval ctx env scrut in
    let slo, shi =
      match legal_num (I.ntrunc (num_of_abs ds)) with
      | Dom.Dint { lo; hi } -> (lo, hi)
      | Dom.Dbool _ | Dom.Dreal _ -> (min_int, max_int)
    in
    let dec_reach = eff_reach reach env in
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
       | L.Slot s ->
         narrow_slot e' s (fun d ->
             meet_num d
               { I.nlo = float_of_int k; nhi = float_of_int k; nint = 1.0 })
       | _ -> ());
      match (ctx.c_oct, e'.e_oct) with
      | Some ov, Some o -> (
        (* [Exec] dispatches on [Value.to_int scrut]; for an int cell
           that truncation is the identity, so the case pins it *)
        match oct_term ctx.ci ov scrut with
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
      | L.Slot s ->
        narrow_slot e' s (fun d ->
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
              (if ctx.c_final then Fmt.str "%s.case%d" loc k else "")
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
              "decision %d case %d is unreachable" id k;
          (r, e'))
        cases
    in
    let r_def, env_def =
      arm (sub_loc ctx loc ".default") default_possible default_forced refine_default
        default
    in
    ctx.c_loc <- loc;
    ctx.c_live <- ctx.c_final && reach <> Never;
    record_branch ctx (id, Branch.Default) r_def;
    if r_def = Never && reach <> Never then
      diag ctx Diag.Dead_default
        "decision %d default is unreachable" id;
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

let fresh_ctx config info final =
  {
    ci = info;
    c_oct =
      (match config.domain with
       | `Octagon -> Some (Octvars.build info)
       | `Interval -> None);
    c_final = final;
    c_live = false;
    c_loc = "";
    c_inchart = false;
    c_diags = [];
    c_branch = [];
    c_guards = [];
  }

(* the abstract value currently held by a tracked cell, if scalar *)
let cell_absval (regs : Absval.t array) ((s, elem) : int * int) =
  if elem < 0 then Some regs.(s)
  else
    match regs.(s) with
    | Absval.Vector els when elem < Array.length els -> Some els.(elem)
    | Absval.Vector _ | Absval.Scalar _ -> None

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

let result_of ctx (state : Absval.t array) env ~iterations ~widenings =
  let prog = ctx.ci.i_prog in
  let lp = ctx.ci.i_lp in
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
      List.mapi
        (fun i (v : Ir.var) -> (v.name, env.e_regs.(lp.output_base + i)))
        prog.Ir.outputs;
  }

let analyze ?(config = default_config) (prog : Ir.program) :
    result =
  Telemetry.Counter.incr tel_runs;
  Telemetry.Span.with_ ~note:(fun () -> prog.Ir.name) tel_span @@ fun () ->
  let info = build_info prog in
  let ctx = fresh_ctx config info false in
  let octvars = ctx.c_oct in
  let lp = info.i_lp in
  let n_state = lp.n_states in
  let state = Array.sub info.i_template lp.n_inputs n_state in
  let n_bounds =
    2 * Array.fold_left (fun acc v -> acc + count_scalars v) 0 state
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
  let is_state s = L.scope_of lp s = Ir.State in
  let oct_state =
    ref
      (Option.map
         (fun ov ->
           let o = Octagon.create ~ints:ov.Octvars.ov_ints in
           oct_seed ov o (fun (s, elem) ->
               if is_state s then cell_absval info.i_template (s, elem)
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
       oct_seed ov o (cell_absval env.e_regs);
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
    exec_stmts ctx env Must "body" lp.body;
    let next =
      Array.init n_state (fun i ->
          Absval.join state.(i) env.e_regs.(lp.n_inputs + i))
    in
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
          (fun idx (s, _) -> if not (is_state s) then Octagon.forget o idx)
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
  exec_stmts ctx env Must "body" lp.body;
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
  let lp = info.i_lp in
  let st =
    if Array.length state = lp.n_states then Array.map Absval.of_value state
    else Array.sub info.i_template lp.n_inputs lp.n_states
  in
  let ctx = fresh_ctx config info true in
  let env = env_make info st in
  (match ctx.c_oct with
   | Some ov ->
     let o = Octagon.create ~ints:ov.Octvars.ov_ints in
     oct_seed ov o (cell_absval env.e_regs);
     env.e_oct <- Some o
   | None -> ());
  exec_stmts ctx env Must "body" lp.body;
  result_of ctx st env ~iterations:1 ~widenings:0

let branch_reach r key =
  match List.assoc_opt key r.r_branch_reach with Some x -> x | None -> May

let guard_fact r id = List.assoc_opt id r.r_guards
