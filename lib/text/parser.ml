(* Structural parser of the .stcg textual model format: the inverse of
   {!Printer} over {!Syntax.sexp} trees.

   Every function takes the sexp node it consumes and raises
   {!Syntax.Error} with that node's position on mismatch, so
   diagnostics land on the offending form, not at end of input.  After
   the AST is rebuilt the source is validated with the model layer's
   own checkers (Model.validate / Chart.validate / Ir.type_check);
   their failures are reported as T301/T302/T303 at the top-level
   form's position.  [parse_string] never raises: every exception is
   converted to an [Error _] result. *)

module M = Slim.Model
module Ir = Slim.Ir
module V = Slim.Value
module C = Stateflow.Chart
open Syntax

let err = Syntax.err

(* (head arg...) — return the head atom and the argument list. *)
let headed x =
  match as_list x with
  | pos, Atom (_, head) :: args -> (pos, head, args)
  | pos, _ -> err ~code:"T101" ~pos "expected a (keyword ...) form"

let shape_err pos head = err ~code:"T202" ~pos "malformed (%s ...) form" head

(* --- values and types --------------------------------------------------- *)

let rec value x =
  let pos, head, args = headed x in
  match (head, args) with
  | "b", [ Atom (bpos, b) ] -> (
    match bool_of_string_opt b with
    | Some b -> V.Bool b
    | None -> err ~code:"T202" ~pos:bpos "expected true or false, got %S" b)
  | "i", [ n ] -> V.Int (as_int n)
  | "r", [ f ] -> V.Real (as_float f)
  | "v", elems -> V.Vec (Array.of_list (List.map value elems))
  | ("b" | "i" | "r"), _ -> shape_err pos head
  | _ -> err ~code:"T201" ~pos "unknown value form (%s ...)" head

let rec ty x =
  match x with
  | Atom (_, "bool") -> V.Tbool
  | Atom (pos, a) -> err ~code:"T201" ~pos "unknown type %S" a
  | Str (pos, _) -> err ~code:"T101" ~pos "expected a type"
  | List _ -> (
    let pos, head, args = headed x in
    match (head, args) with
    | "int", [ lo; hi ] -> V.Tint { lo = as_int lo; hi = as_int hi }
    | "real", [ lo; hi ] -> V.Treal { lo = as_float lo; hi = as_float hi }
    | "vec", [ elt; n ] -> V.Tvec (ty elt, as_int n)
    | ("int" | "real" | "vec"), _ -> shape_err pos head
    | _ -> err ~code:"T201" ~pos "unknown type form (%s ...)" head)

let cmpop_of = function
  | "=" -> Some Ir.Eq
  | "<>" -> Some Ir.Ne
  | "<" -> Some Ir.Lt
  | "<=" -> Some Ir.Le
  | ">" -> Some Ir.Gt
  | ">=" -> Some Ir.Ge
  | _ -> None

let cmpop x =
  let pos, a = as_atom x in
  match cmpop_of a with
  | Some op -> op
  | None -> err ~code:"T201" ~pos "unknown comparison operator %S" a

let unop_of = function
  | "neg" -> Some Ir.Neg
  | "not" -> Some Ir.Not
  | "abs" -> Some Ir.Abs_op
  | "to-real" -> Some Ir.To_real
  | "to-int" -> Some Ir.To_int
  | "floor" -> Some Ir.Floor
  | "ceil" -> Some Ir.Ceil
  | _ -> None

let binop_of = function
  | "+" -> Some Ir.Add
  | "-" -> Some Ir.Sub
  | "*" -> Some Ir.Mul
  | "/" -> Some Ir.Div
  | "mod" -> Some Ir.Mod
  | "min" -> Some Ir.Min
  | "max" -> Some Ir.Max
  | _ -> None

let scope_of = function
  | "in" -> Some Ir.Input
  | "out" -> Some Ir.Output
  | "st" -> Some Ir.State
  | "lo" -> Some Ir.Local
  | _ -> None

(* --- expressions, lvalues, statements ----------------------------------- *)

let rec expr x =
  let pos, head, args = headed x in
  match (head, args, scope_of head, unop_of head, binop_of head, cmpop_of head)
  with
  | "c", [ v ], _, _, _, _ -> Ir.Const (value v)
  | _, [ n ], Some sc, _, _, _ -> Ir.Var (sc, snd (as_str n))
  | _, [ e ], _, Some op, _, _ -> Ir.Unop (op, expr e)
  | _, [ a; b ], _, _, Some op, _ -> Ir.Binop (op, expr a, expr b)
  | _, [ a; b ], _, _, _, Some op -> Ir.Cmp (op, expr a, expr b)
  | "and", [ a; b ], _, _, _, _ -> Ir.And (expr a, expr b)
  | "or", [ a; b ], _, _, _, _ -> Ir.Or (expr a, expr b)
  | "ite", [ c; t; e ], _, _, _, _ -> Ir.Ite (expr c, expr t, expr e)
  | "idx", [ v; i ], _, _, _, _ -> Ir.Index (expr v, expr i)
  | _, _, Some _, _, _, _ | _, _, _, Some _, _, _
  | _, _, _, _, Some _, _ | _, _, _, _, _, Some _ ->
    shape_err pos head
  | ("c" | "and" | "or" | "ite" | "idx"), _, _, _, _, _ -> shape_err pos head
  | _ -> err ~code:"T201" ~pos "unknown expression form (%s ...)" head

let rec lvalue x =
  let pos, head, args = headed x in
  match (head, args, scope_of head) with
  | _, [ n ], Some sc -> Ir.Lvar (sc, snd (as_str n))
  | "idx", [ lv; i ], _ -> Ir.Lindex (lvalue lv, expr i)
  | ("idx" | "in" | "out" | "st" | "lo"), _, _ -> shape_err pos head
  | _ -> err ~code:"T201" ~pos "unknown lvalue form (%s ...)" head

let rec stmt x =
  let pos, head, args = headed x in
  match (head, args) with
  | "set", [ lv; e ] -> Ir.Assign (lvalue lv, expr e)
  | "if", id :: cond :: rest ->
    let id = as_int id in
    let cond = expr cond in
    let branch kw = function
      | List (_, Atom (_, k) :: body) when k = kw -> Some (List.map stmt body)
      | _ -> None
    in
    (match rest with
     | [ t ] -> (
       match branch "then" t with
       | Some then_ -> Ir.If { id; cond; then_; else_ = [] }
       | None -> shape_err pos head)
     | [ t; e ] -> (
       match (branch "then" t, branch "else" e) with
       | Some then_, Some else_ -> Ir.If { id; cond; then_; else_ }
       | _ -> shape_err pos head)
     | _ -> shape_err pos head)
  | "case", id :: scrut :: rest ->
    let id = as_int id in
    let scrut = expr scrut in
    let rec arms acc = function
      | [ List (_, Atom (_, "default") :: body) ] ->
        Ir.Switch
          { id; scrut; cases = List.rev acc; default = List.map stmt body }
      | List (_, Atom (_, "of") :: lbl :: body) :: rest ->
        arms ((as_int lbl, List.map stmt body) :: acc) rest
      | _ -> shape_err pos head
    in
    arms [] rest
  | ("set" | "if" | "case"), _ -> shape_err pos head
  | _ -> err ~code:"T201" ~pos "unknown statement form (%s ...)" head

(* --- sections ----------------------------------------------------------- *)

(* (head item...) where the section keyword is fixed. *)
let named_section kw x =
  let pos, head, args = headed x in
  if head <> kw then
    err ~code:"T202" ~pos "expected (%s ...) section, got (%s ...)" kw head;
  args

let var_decl scope x =
  match as_list x with
  | _, [ n; t ] -> Ir.var scope (snd (as_str n)) (ty t)
  | pos, _ -> err ~code:"T202" ~pos "expected (\"name\" TYPE)"

let state_decl x =
  match as_list x with
  | _, [ n; t; init ] ->
    (Ir.var Ir.State (snd (as_str n)) (ty t), value init)
  | pos, _ -> err ~code:"T202" ~pos "expected (\"name\" TYPE VALUE)"

(* The five sections shared by (program ...) and (fragment ...). *)
let program_sections pos = function
  | [ ins; outs; states; locals; body ] ->
    ( List.map (var_decl Ir.Input) (named_section "inputs" ins),
      List.map (var_decl Ir.Output) (named_section "outputs" outs),
      List.map state_decl (named_section "states" states),
      List.map (var_decl Ir.Local) (named_section "locals" locals),
      List.map stmt (named_section "body" body) )
  | _ ->
    err ~code:"T202" ~pos
      "expected (inputs ...) (outputs ...) (states ...) (locals ...) (body ...)"

let program_of_args pos name args : Ir.program =
  let inputs, outputs, states, locals, body = program_sections pos args in
  { Ir.name; inputs; outputs; states; locals; body }

let fragment x : Ir.fragment =
  let pos, head, args = headed x in
  match (head, args) with
  | "fragment", name :: rest ->
    let f_name = snd (as_str name) in
    let f_inputs, f_outputs, f_states, f_locals, f_body =
      program_sections pos rest
    in
    { Ir.f_name; f_inputs; f_outputs; f_states; f_locals; f_body }
  | _ -> err ~code:"T202" ~pos "expected a (fragment ...) form"

(* --- diagrams ----------------------------------------------------------- *)

let wire_src x =
  match x with
  | Atom (_, "_") -> None
  | List (_, [ b; p ]) -> Some { M.s_block = as_int b; s_port = as_int p }
  | _ ->
    err ~code:"T202" ~pos:(pos_of x) "expected a (BLOCK PORT) wire source or _"

let store_decl x =
  match as_list x with
  | _, [ n; t; init ] -> (snd (as_str n), ty t, value init)
  | pos, _ -> err ~code:"T202" ~pos "expected (\"name\" TYPE VALUE)"

let rec kind x : M.kind =
  let pos, head, args = headed x in
  match (head, args) with
  | "inport", [ n; t ] -> M.Inport (snd (as_str n), ty t)
  | "outport", [ n ] -> M.Outport (snd (as_str n))
  | "const", [ v ] -> M.Constant (value v)
  | "gain", [ g ] -> M.Gain (as_float g)
  | "sum", signs ->
    M.Sum
      (List.map
         (fun s ->
           match as_atom s with
           | _, "+" -> M.Plus
           | _, "-" -> M.Minus
           | p, a -> err ~code:"T202" ~pos:p "expected + or -, got %S" a)
         signs)
  | "product", factors ->
    M.Product
      (List.map
         (fun f ->
           match as_atom f with
           | _, "*" -> M.Mul
           | _, "/" -> M.Div
           | p, a -> err ~code:"T202" ~pos:p "expected * or /, got %S" a)
         factors)
  | "min", [ n ] -> M.Min_max (`Min, as_int n)
  | "max", [ n ] -> M.Min_max (`Max, as_int n)
  | "abs", [] -> M.Abs
  | "not", [] -> M.Not
  | "sat", [ lo; hi ] -> M.Saturation { lower = as_float lo; upper = as_float hi }
  | "rel", [ op ] -> M.Relational (cmpop op)
  | "logic", [ op; n ] ->
    let lop =
      match as_atom op with
      | _, "and" -> M.L_and
      | _, "or" -> M.L_or
      | _, "xor" -> M.L_xor
      | _, "nand" -> M.L_nand
      | _, "nor" -> M.L_nor
      | p, a -> err ~code:"T201" ~pos:p "unknown logic operator %S" a
    in
    M.Logical (lop, as_int n)
  | "cmpc", [ op; f ] -> M.Compare_to_const (cmpop op, as_float f)
  | "switch", [ op; th ] -> M.Switch { cmp = cmpop op; threshold = as_float th }
  | "mswitch", labels -> M.Multiport_switch { labels = List.map as_int labels }
  | "unit-delay", [ v ] -> M.Unit_delay (value v)
  | "delay", [ v; n ] -> M.Delay { initial = value v; length = as_int n }
  | "integ", [ i; g; lo; hi ] ->
    M.Discrete_integrator
      { initial = as_float i; gain = as_float g; lower = as_float lo;
        upper = as_float hi }
  | "counter", [ i; m ] -> M.Counter { initial = as_int i; modulo = as_int m }
  | "ds-read", [ n ] -> M.Data_store_read (snd (as_str n))
  | "ds-write", [ n ] -> M.Data_store_write (snd (as_str n))
  | "ds-write-elem", [ n ] -> M.Data_store_write_element (snd (as_str n))
  | "selector", [] -> M.Selector
  | "chart-block", [ frag ] -> M.Chart (fragment frag)
  | "enabled", [ h; sub ] ->
    let held =
      match as_atom h with
      | _, "held" -> true
      | _, "reset" -> false
      | p, a -> err ~code:"T202" ~pos:p "expected held or reset, got %S" a
    in
    M.Enabled { sub = diagram sub; held }
  | "if-else", [ t; e ] -> M.If_else { then_sys = diagram t; else_sys = diagram e }
  | "case-switch", arms ->
    let rec cases acc = function
      | [] -> M.Case_switch { cases = List.rev acc; default = None }
      | [ List (_, Atom (_, "default") :: [ sub ]) ] ->
        M.Case_switch { cases = List.rev acc; default = Some (diagram sub) }
      | List (_, [ Atom (_, "of"); lbl; sub ]) :: rest ->
        cases ((as_int lbl, diagram sub) :: acc) rest
      | x :: _ ->
        err ~code:"T202" ~pos:(pos_of x)
          "expected (of LABEL DIAGRAM) or (default DIAGRAM)"
    in
    cases [] arms
  | ( ( "inport" | "outport" | "const" | "gain" | "min" | "max" | "abs" | "not"
      | "sat" | "rel" | "logic" | "cmpc" | "switch" | "unit-delay" | "delay"
      | "integ" | "counter" | "ds-read" | "ds-write" | "ds-write-elem"
      | "selector" | "chart-block" | "enabled" | "if-else" ),
      _ ) ->
    shape_err pos head
  | _ -> err ~code:"T201" ~pos "unknown block kind (%s ...)" head

and block x =
  let pos, head, args = headed x in
  if head <> "block" then err ~code:"T202" ~pos "expected a (block ...) form";
  match args with
  | id :: name :: k :: [ wires ] ->
    let id = as_int id in
    let bname = snd (as_str name) in
    let kind = kind k in
    let srcs =
      Array.of_list (List.map wire_src (named_section "wires" wires))
    in
    let want = M.in_arity kind in
    if Array.length srcs <> want then
      err ~code:"T202" ~pos
        "block %d (%s): %d wire sources for %d input ports" id
        (M.kind_name kind) (Array.length srcs) want;
    (pos, { M.id; bname; kind; srcs })
  | _ -> err ~code:"T202" ~pos "expected (block ID \"name\" KIND (wires ...))"

and diagram x : M.t =
  let pos, head, args = headed x in
  match (head, args) with
  | "diagram", [ name; stores; blocks ] ->
    let m_name = snd (as_str name) in
    let stores = List.map store_decl (named_section "stores" stores) in
    let blocks_raw = List.map block (named_section "blocks" blocks) in
    let n = List.length blocks_raw in
    let arr = Array.make n None in
    List.iter
      (fun (bpos, (b : M.block)) ->
        if b.M.id < 0 || b.M.id >= n then
          err ~code:"T202" ~pos:bpos
            "block id %d out of range (%d blocks, ids must be 0..%d)" b.M.id n
            (n - 1);
        match arr.(b.M.id) with
        | Some _ -> err ~code:"T203" ~pos:bpos "duplicate block id %d" b.M.id
        | None -> arr.(b.M.id) <- Some b)
      blocks_raw;
    let blocks = Array.map Option.get arr in
    { M.m_name; blocks; stores }
  | "diagram", _ ->
    err ~code:"T202" ~pos "expected (diagram \"name\" (stores ...) (blocks ...))"
  | _ -> err ~code:"T202" ~pos "expected a (diagram ...) form"

(* --- charts ------------------------------------------------------------- *)

let rec region x : C.region =
  let pos, head, args = headed x in
  match (head, args) with
  | "region", initial :: rest ->
    let initial = snd (as_str initial) in
    let states, transitions =
      List.fold_left
        (fun (sts, trs) item ->
          match headed item with
          | _, "state", _ -> (chart_state item :: sts, trs)
          | _, "trans", _ -> (sts, chart_trans item :: trs)
          | p, h, _ ->
            err ~code:"T201" ~pos:p "expected (state ...) or (trans ...), got (%s ...)" h)
        ([], []) rest
    in
    { C.states = List.rev states; initial; transitions = List.rev transitions }
  | _ -> err ~code:"T202" ~pos "expected a (region \"Initial\" ...) form"

and chart_state x : C.state =
  let pos, _, args = headed x in
  match args with
  | name :: sections ->
    let st_name = snd (as_str name) in
    let entry = ref [] and during = ref [] and exit = ref [] in
    let children = ref None in
    List.iter
      (fun s ->
        match headed s with
        | _, "entry", body -> entry := List.map stmt body
        | _, "during", body -> during := List.map stmt body
        | _, "exit", body -> exit := List.map stmt body
        | _, "children", [ r ] -> children := Some (region r)
        | p, "children", _ -> shape_err p "children"
        | p, h, _ -> err ~code:"T201" ~pos:p "unknown state section (%s ...)" h)
      sections;
    { C.st_name; entry = !entry; during = !during; exit = !exit;
      children = !children }
  | [] -> err ~code:"T202" ~pos "expected (state \"Name\" ...)"

and chart_trans x : C.transition =
  let pos, _, args = headed x in
  match args with
  | src :: dst :: List (_, [ Atom (_, "guard"); g ]) :: rest ->
    let t_action =
      match rest with
      | [] -> []
      | [ act ] -> List.map stmt (named_section "action" act)
      | _ -> err ~code:"T202" ~pos "malformed (trans ...) form"
    in
    { C.src = snd (as_str src); dst = snd (as_str dst); guard = expr g;
      t_action }
  | _ ->
    err ~code:"T202" ~pos
      "expected (trans \"Src\" \"Dst\" (guard EXPR) [(action ...)])"

let chart_of x : C.t =
  let pos, head, args = headed x in
  match (head, args) with
  | "chart", [ name; ins; outs; data; top ] ->
    {
      C.ch_name = snd (as_str name);
      inputs = List.map (var_decl Ir.Input) (named_section "inputs" ins);
      outputs = List.map (var_decl Ir.Output) (named_section "outputs" outs);
      data = List.map state_decl (named_section "data" data);
      top = region top;
    }
  | _ ->
    err ~code:"T202" ~pos
      "expected (chart \"name\" (inputs ...) (outputs ...) (data ...) (region ...))"

(* --- top level ---------------------------------------------------------- *)

let validated pos src =
  (match src with
   | Source.Diagram m -> (
     try M.validate m
     with M.Invalid_model msg -> err ~code:"T301" ~pos "invalid model: %s" msg)
   | Source.Chart c -> (
     try C.validate c
     with C.Invalid_chart msg -> err ~code:"T302" ~pos "invalid chart: %s" msg)
   | Source.Program p -> (
     try Ir.type_check p
     with Ir.Ill_typed msg -> err ~code:"T303" ~pos "ill-typed program: %s" msg));
  src

let source_of_sexp x =
  let pos, head, args = headed x in
  match head with
  | "diagram" -> validated pos (Source.Diagram (diagram x))
  | "chart" -> validated pos (Source.Chart (chart_of x))
  | "program" -> (
    match args with
    | name :: rest ->
      validated pos
        (Source.Program (program_of_args pos (snd (as_str name)) rest))
    | [] -> err ~code:"T202" ~pos "expected (program \"name\" ...)")
  | _ ->
    err ~code:"T201" ~pos
      "expected a top-level (diagram|chart|program ...), got (%s ...)" head

let parse_string s =
  match source_of_sexp (Syntax.read_one s) with
  | src -> Ok src
  | exception Syntax.Error e -> Error e
  | exception exn ->
    (* the no-uncaught-exception contract: anything unexpected is
       reported as a diagnostic, never re-raised *)
    Error
      {
        code = "T900";
        pos = { line = 1; col = 1 };
        msg = "internal error: " ^ Printexc.to_string exn;
      }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path =
  match read_file path with
  | s -> parse_string s
  | exception Sys_error msg ->
    Error { code = "T101"; pos = { line = 1; col = 1 }; msg }

