type scope = Input | Output | State | Local

type var = { name : string; scope : scope; ty : Value.ty }

type unop = Neg | Not | Abs_op | To_real | To_int | Floor | Ceil

type binop = Add | Sub | Mul | Div | Mod | Min | Max

type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Const of Value.t
  | Var of scope * string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Cmp of cmpop * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Ite of expr * expr * expr
  | Index of expr * expr

type lvalue =
  | Lvar of scope * string
  | Lindex of lvalue * expr

type stmt =
  | Assign of lvalue * expr
  | If of { id : int; cond : expr; then_ : stmt list; else_ : stmt list }
  | Switch of {
      id : int;
      scrut : expr;
      cases : (int * stmt list) list;
      default : stmt list;
    }

type program = {
  name : string;
  inputs : var list;
  outputs : var list;
  states : (var * Value.t) list;
  locals : var list;
  body : stmt list;
}

exception Ill_typed of string

let ill_typed fmt = Format.kasprintf (fun s -> raise (Ill_typed s)) fmt

(* Construction helpers *)

let var scope name ty = { name; scope; ty }
let input name ty = var Input name ty
let output name ty = var Output name ty
let local name ty = var Local name ty
let state name ty init = (var State name ty, init)

let ci i = Const (Value.Int i)
let cr r = Const (Value.Real r)
let cb b = Const (Value.Bool b)
let iv name = Var (Input, name)
let sv name = Var (State, name)
let lv name = Var (Local, name)

let ( +: ) a b = Binop (Add, a, b)
let ( -: ) a b = Binop (Sub, a, b)
let ( *: ) a b = Binop (Mul, a, b)
let ( /: ) a b = Binop (Div, a, b)
let ( =: ) a b = Cmp (Eq, a, b)
let ( <>: ) a b = Cmp (Ne, a, b)
let ( <: ) a b = Cmp (Lt, a, b)
let ( <=: ) a b = Cmp (Le, a, b)
let ( >: ) a b = Cmp (Gt, a, b)
let ( >=: ) a b = Cmp (Ge, a, b)
let ( &&: ) a b = And (a, b)
let ( ||: ) a b = Or (a, b)
let not_ e = Unop (Not, e)
let ite c t e = Ite (c, t, e)
let index v i = Index (v, i)

let conj = function
  | [] -> cb true
  | e :: es -> List.fold_left ( &&: ) e es

let disj = function
  | [] -> cb false
  | e :: es -> List.fold_left ( ||: ) e es

let assign name e = Assign (Lvar (Local, name), e)
let assign_state name e = Assign (Lvar (State, name), e)
let assign_out name e = Assign (Lvar (Output, name), e)
let assign_state_idx name idx e = Assign (Lindex (Lvar (State, name), idx), e)

let decision_counter = ref 0

let fresh_decision_id () =
  let id = !decision_counter in
  incr decision_counter;
  id

let if_ cond then_ else_ = If { id = fresh_decision_id (); cond; then_; else_ }

let switch scrut cases default =
  Switch { id = fresh_decision_id (); scrut; cases; default }

(* Analyses *)

let atoms_of_condition cond =
  let rec go acc = function
    | And (a, b) | Or (a, b) -> go (go acc a) b
    | Unop (Not, e) -> go acc e
    | (Const _ | Var _ | Unop _ | Binop _ | Cmp _ | Ite _ | Index _) as atom ->
      atom :: acc
  in
  List.rev (go [] cond)

let renumber_decisions prog =
  let next = ref 0 in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  let rec stmts ss = List.map stmt ss
  and stmt = function
    | Assign _ as s -> s
    | If { id = _; cond; then_; else_ } ->
      let id = fresh () in
      let then_ = stmts then_ in
      let else_ = stmts else_ in
      If { id; cond; then_; else_ }
    | Switch { id = _; scrut; cases; default } ->
      let id = fresh () in
      let cases = List.map (fun (k, ss) -> (k, stmts ss)) cases in
      let default = stmts default in
      Switch { id; scrut; cases; default }
  in
  { prog with body = stmts prog.body }

(* Typing *)

let scope_name = function
  | Input -> "input"
  | Output -> "output"
  | State -> "state"
  | Local -> "local"

let rec ty_of_value = function
  | Value.Bool _ -> Value.Tbool
  | Value.Int _ -> Value.tint
  | Value.Real _ -> Value.treal
  | Value.Vec a ->
    let ety =
      if Array.length a = 0 then Value.tint else ty_of_value a.(0)
    in
    Value.Tvec (ety, Array.length a)

let is_num = function
  | Value.Tint _ | Value.Treal _ -> true
  | Value.Tbool | Value.Tvec _ -> false

let join_num a b =
  match a, b with
  | Value.Tint _, Value.Tint _ -> Value.tint
  | (Value.Tint _ | Value.Treal _), (Value.Tint _ | Value.Treal _) ->
    Value.treal
  | (Value.Tbool | Value.Tvec _), _ | _, (Value.Tbool | Value.Tvec _) ->
    ill_typed "numeric operator on non-numeric operand"

let rec expr_ty lookup = function
  | Const v -> ty_of_value v
  | Var (scope, name) -> lookup scope name
  | Unop (op, e) ->
    let ty = expr_ty lookup e in
    (match op with
     | Not ->
       if ty <> Value.Tbool then ill_typed "not: non-boolean operand";
       Value.Tbool
     | Neg | Abs_op ->
       if not (is_num ty) then ill_typed "neg/abs: non-numeric operand";
       ty
     | To_real ->
       (* booleans coerce to 0/1, as Simulink data-type casts do *)
       if not (is_num ty || ty = Value.Tbool) then
         ill_typed "to_real: non-scalar operand";
       Value.treal
     | Floor | Ceil ->
       if not (is_num ty) then ill_typed "floor/ceil: non-numeric";
       ty
     | To_int ->
       if not (is_num ty || ty = Value.Tbool) then
         ill_typed "to_int: non-scalar operand";
       Value.tint)
  | Binop (_, a, b) -> join_num (expr_ty lookup a) (expr_ty lookup b)
  | Cmp (op, a, b) ->
    let ta = expr_ty lookup a and tb = expr_ty lookup b in
    (match op, ta, tb with
     | (Eq | Ne), Value.Tbool, Value.Tbool -> ()
     | _, ta, tb when is_num ta && is_num tb -> ()
     | _ -> ill_typed "comparison on incompatible operands");
    Value.Tbool
  | And (a, b) | Or (a, b) ->
    if expr_ty lookup a <> Value.Tbool || expr_ty lookup b <> Value.Tbool
    then ill_typed "and/or: non-boolean operand";
    Value.Tbool
  | Ite (c, t, e) ->
    if expr_ty lookup c <> Value.Tbool then ill_typed "ite: non-bool guard";
    let tt = expr_ty lookup t and te = expr_ty lookup e in
    if Value.ty_compatible tt te then tt
    else if is_num tt && is_num te then join_num tt te
    else ill_typed "ite: branch types differ"
  | Index (v, i) ->
    if not (is_num (expr_ty lookup i)) then ill_typed "index: non-int index";
    (match expr_ty lookup v with
     | Value.Tvec (ety, _) -> ety
     | Value.Tbool | Value.Tint _ | Value.Treal _ ->
       ill_typed "index: non-vector value")

let type_check prog =
  let table = Hashtbl.create 64 in
  let declare v =
    if Hashtbl.mem table (v.scope, v.name) then
      ill_typed "duplicate %s variable %s" (scope_name v.scope) v.name;
    Hashtbl.replace table (v.scope, v.name) v.ty
  in
  List.iter declare prog.inputs;
  List.iter declare prog.outputs;
  List.iter (fun (v, init) ->
      declare v;
      if not (Value.member v.ty init) then
        ill_typed "state %s: initial value %s outside type %s" v.name
          (Value.to_string init)
          (Fmt.str "%a" Value.pp_ty v.ty))
    prog.states;
  List.iter declare prog.locals;
  let lookup scope name =
    match Hashtbl.find_opt table (scope, name) with
    | Some ty -> ty
    | None -> ill_typed "unbound %s variable %s" (scope_name scope) name
  in
  let rec lvalue_ty = function
    | Lvar (scope, name) ->
      (match scope with
       | Input -> ill_typed "assignment to input %s" name
       | Output | State | Local -> lookup scope name)
    | Lindex (lhs, idx) ->
      if not (is_num (expr_ty lookup idx)) then
        ill_typed "lvalue index: non-int index";
      (match lvalue_ty lhs with
       | Value.Tvec (ety, _) -> ety
       | Value.Tbool | Value.Tint _ | Value.Treal _ ->
         ill_typed "lvalue index on non-vector")
  in
  let check_assign lhs e =
    let lt = lvalue_ty lhs and et = expr_ty lookup e in
    let ok =
      Value.ty_compatible lt et || (is_num lt && is_num et)
    in
    if not ok then ill_typed "assignment type mismatch in %s" prog.name
  in
  let seen_ids = Hashtbl.create 64 in
  let check_id id =
    if Hashtbl.mem seen_ids id then ill_typed "duplicate decision id %d" id;
    Hashtbl.replace seen_ids id ()
  in
  let rec stmts ss = List.iter stmt ss
  and stmt = function
    | Assign (lhs, e) -> check_assign lhs e
    | If { id; cond; then_; else_ } ->
      check_id id;
      if expr_ty lookup cond <> Value.Tbool then
        ill_typed "if guard is not boolean (decision %d)" id;
      stmts then_;
      stmts else_
    | Switch { id; scrut; cases; default } ->
      check_id id;
      if not (is_num (expr_ty lookup scrut)) then
        ill_typed "switch scrutinee is not numeric (decision %d)" id;
      let labels = List.map fst cases in
      let sorted = List.sort_uniq Int.compare labels in
      if List.length sorted <> List.length labels then
        ill_typed "duplicate switch case label (decision %d)" id;
      List.iter (fun (_, ss) -> stmts ss) cases;
      stmts default
  in
  stmts prog.body

let stmt_count prog =
  let rec stmts ss = List.fold_left (fun n s -> n + stmt s) 0 ss
  and stmt = function
    | Assign _ -> 1
    | If { then_; else_; _ } -> 1 + stmts then_ + stmts else_
    | Switch { cases; default; _ } ->
      1 + List.fold_left (fun n (_, ss) -> n + stmts ss) 0 cases
      + stmts default
  in
  stmts prog.body

(* Fragments *)

type fragment = {
  f_name : string;
  f_inputs : var list;
  f_outputs : var list;
  f_states : (var * Value.t) list;
  f_locals : var list;
  f_body : stmt list;
}

let instantiate ~prefix ~bind_input ~out_local frag =
  let is_input n = List.exists (fun (v : var) -> v.name = n) frag.f_inputs in
  let is_output n =
    List.exists (fun (v : var) -> v.name = n) frag.f_outputs
  in
  let rename n = prefix ^ "." ^ n in
  let rec expr = function
    | Const _ as e -> e
    | Var (Input, n) when is_input n -> bind_input n
    | Var (Input, n) -> ill_typed "fragment %s: unknown input %s" frag.f_name n
    | Var (Output, n) when is_output n -> Var (Local, out_local n)
    | Var (Output, n) ->
      ill_typed "fragment %s: unknown output %s" frag.f_name n
    | Var (State, n) -> Var (State, rename n)
    | Var (Local, n) -> Var (Local, rename n)
    | Unop (op, e) -> Unop (op, expr e)
    | Binop (op, a, b) -> Binop (op, expr a, expr b)
    | Cmp (op, a, b) -> Cmp (op, expr a, expr b)
    | And (a, b) -> And (expr a, expr b)
    | Or (a, b) -> Or (expr a, expr b)
    | Ite (c, t, e) -> Ite (expr c, expr t, expr e)
    | Index (v, i) -> Index (expr v, expr i)
  in
  let rec lvalue = function
    | Lvar (Input, n) -> ill_typed "fragment %s: assigns input %s" frag.f_name n
    | Lvar (Output, n) when is_output n -> Lvar (Local, out_local n)
    | Lvar (Output, n) ->
      ill_typed "fragment %s: unknown output %s" frag.f_name n
    | Lvar (State, n) -> Lvar (State, rename n)
    | Lvar (Local, n) -> Lvar (Local, rename n)
    | Lindex (lhs, i) -> Lindex (lvalue lhs, expr i)
  in
  let rec stmts ss = List.map stmt ss
  and stmt = function
    | Assign (lhs, e) -> Assign (lvalue lhs, expr e)
    | If { id = _; cond; then_; else_ } ->
      If
        {
          id = fresh_decision_id ();
          cond = expr cond;
          then_ = stmts then_;
          else_ = stmts else_;
        }
    | Switch { id = _; scrut; cases; default } ->
      Switch
        {
          id = fresh_decision_id ();
          scrut = expr scrut;
          cases = List.map (fun (k, ss) -> (k, stmts ss)) cases;
          default = stmts default;
        }
  in
  let states =
    List.map
      (fun ((v : var), init) -> ({ v with name = rename v.name }, init))
      frag.f_states
  in
  let locals =
    List.map (fun (v : var) -> { v with name = rename v.name }) frag.f_locals
    @ List.map
        (fun (v : var) -> { v with name = out_local v.name; scope = Local })
        frag.f_outputs
  in
  (states, locals, stmts frag.f_body)

(* Printing *)

let pp_unop ppf = function
  | Neg -> Fmt.string ppf "-"
  | Not -> Fmt.string ppf "!"
  | Abs_op -> Fmt.string ppf "abs"
  | To_real -> Fmt.string ppf "real"
  | To_int -> Fmt.string ppf "int"
  | Floor -> Fmt.string ppf "floor"
  | Ceil -> Fmt.string ppf "ceil"

let pp_binop ppf = function
  | Add -> Fmt.string ppf "+"
  | Sub -> Fmt.string ppf "-"
  | Mul -> Fmt.string ppf "*"
  | Div -> Fmt.string ppf "/"
  | Mod -> Fmt.string ppf "%"
  | Min -> Fmt.string ppf "min"
  | Max -> Fmt.string ppf "max"

let pp_cmpop ppf = function
  | Eq -> Fmt.string ppf "=="
  | Ne -> Fmt.string ppf "!="
  | Lt -> Fmt.string ppf "<"
  | Le -> Fmt.string ppf "<="
  | Gt -> Fmt.string ppf ">"
  | Ge -> Fmt.string ppf ">="

let scope_prefix = function
  | Input -> "in:"
  | Output -> "out:"
  | State -> "st:"
  | Local -> ""

let rec pp_expr ppf = function
  | Const v -> Value.pp ppf v
  | Var (scope, name) -> Fmt.pf ppf "%s%s" (scope_prefix scope) name
  | Unop (op, e) -> Fmt.pf ppf "%a(%a)" pp_unop op pp_expr e
  | Binop ((Min | Max) as op, a, b) ->
    Fmt.pf ppf "%a(%a, %a)" pp_binop op pp_expr a pp_expr b
  | Binop (op, a, b) ->
    Fmt.pf ppf "(%a %a %a)" pp_expr a pp_binop op pp_expr b
  | Cmp (op, a, b) -> Fmt.pf ppf "(%a %a %a)" pp_expr a pp_cmpop op pp_expr b
  | And (a, b) -> Fmt.pf ppf "(%a && %a)" pp_expr a pp_expr b
  | Or (a, b) -> Fmt.pf ppf "(%a || %a)" pp_expr a pp_expr b
  | Ite (c, t, e) ->
    Fmt.pf ppf "(%a ? %a : %a)" pp_expr c pp_expr t pp_expr e
  | Index (v, i) -> Fmt.pf ppf "%a[%a]" pp_expr v pp_expr i

let rec pp_lvalue ppf = function
  | Lvar (scope, name) -> Fmt.pf ppf "%s%s" (scope_prefix scope) name
  | Lindex (lhs, i) -> Fmt.pf ppf "%a[%a]" pp_lvalue lhs pp_expr i

let rec pp_stmt ppf = function
  | Assign (lhs, e) -> Fmt.pf ppf "@[<hv 2>%a :=@ %a@]" pp_lvalue lhs pp_expr e
  | If { id; cond; then_; else_ } ->
    Fmt.pf ppf "@[<v 2>if#%d %a {@ %a@]@ }" id pp_expr cond pp_body then_;
    if else_ <> [] then Fmt.pf ppf "@[<v 2> else {@ %a@]@ }" pp_body else_
  | Switch { id; scrut; cases; default } ->
    Fmt.pf ppf "@[<v 2>switch#%d %a {" id pp_expr scrut;
    List.iter
      (fun (k, ss) -> Fmt.pf ppf "@ @[<v 2>case %d:@ %a@]" k pp_body ss)
      cases;
    Fmt.pf ppf "@ @[<v 2>default:@ %a@]@]@ }" pp_body default

and pp_body ppf ss = Fmt.(list ~sep:(any "@ ") pp_stmt) ppf ss

let pp_var ppf (v : var) = Fmt.pf ppf "%s : %a" v.name Value.pp_ty v.ty

let pp_program ppf prog =
  Fmt.pf ppf "@[<v>program %s@," prog.name;
  Fmt.pf ppf "inputs: @[<hv>%a@]@," Fmt.(list ~sep:comma pp_var) prog.inputs;
  Fmt.pf ppf "outputs: @[<hv>%a@]@," Fmt.(list ~sep:comma pp_var) prog.outputs;
  Fmt.pf ppf "states: @[<hv>%a@]@,"
    Fmt.(
      list ~sep:comma (fun ppf (v, init) ->
          Fmt.pf ppf "%a = %a" pp_var v Value.pp init))
    prog.states;
  Fmt.pf ppf "@[<v 2>body:@ %a@]@]" pp_body prog.body
