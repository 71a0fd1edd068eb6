(* Canonical printer of the .stcg textual model format.

   The layout is fixed — leaf forms (values, types, expressions, wire
   sources, variable declarations) print on one line; structural forms
   (sections, blocks, statements, states, transitions, nested
   subsystems) open a new indented line per child — so the printed
   bytes are a function of the AST alone: [print (parse s)] is
   byte-stable for any canonical [s], and goldens diff cleanly.

   Floats print with %.17g, which round-trips every IEEE double
   exactly (including inf/-inf/nan and -0). *)

module M = Slim.Model
module Ir = Slim.Ir
module V = Slim.Value
module C = Stateflow.Chart

exception Print_error of string

let perr fmt = Format.kasprintf (fun s -> raise (Print_error s)) fmt

let fstr f = Printf.sprintf "%.17g" f
let qstr s = "\"" ^ Syntax.escape_string s ^ "\""

(* --- leaf forms (single line, returned as strings) ---------------------- *)

let rec value_str = function
  | V.Bool b -> Printf.sprintf "(b %b)" b
  | V.Int n -> Printf.sprintf "(i %d)" n
  | V.Real f -> Printf.sprintf "(r %s)" (fstr f)
  | V.Vec a ->
    "(v"
    ^ Array.fold_left (fun acc v -> acc ^ " " ^ value_str v) "" a
    ^ ")"

let rec ty_str = function
  | V.Tbool -> "bool"
  | V.Tint { lo; hi } -> Printf.sprintf "(int %d %d)" lo hi
  | V.Treal { lo; hi } -> Printf.sprintf "(real %s %s)" (fstr lo) (fstr hi)
  | V.Tvec (ty, n) -> Printf.sprintf "(vec %s %d)" (ty_str ty) n

let cmpop_str = function
  | Ir.Eq -> "="
  | Ir.Ne -> "<>"
  | Ir.Lt -> "<"
  | Ir.Le -> "<="
  | Ir.Gt -> ">"
  | Ir.Ge -> ">="

let unop_str = function
  | Ir.Neg -> "neg"
  | Ir.Not -> "not"
  | Ir.Abs_op -> "abs"
  | Ir.To_real -> "to-real"
  | Ir.To_int -> "to-int"
  | Ir.Floor -> "floor"
  | Ir.Ceil -> "ceil"

let binop_str = function
  | Ir.Add -> "+"
  | Ir.Sub -> "-"
  | Ir.Mul -> "*"
  | Ir.Div -> "/"
  | Ir.Mod -> "mod"
  | Ir.Min -> "min"
  | Ir.Max -> "max"

let scope_str = function
  | Ir.Input -> "in"
  | Ir.Output -> "out"
  | Ir.State -> "st"
  | Ir.Local -> "lo"

let rec expr_str = function
  | Ir.Const v -> Printf.sprintf "(c %s)" (value_str v)
  | Ir.Var (sc, n) -> Printf.sprintf "(%s %s)" (scope_str sc) (qstr n)
  | Ir.Unop (op, e) -> Printf.sprintf "(%s %s)" (unop_str op) (expr_str e)
  | Ir.Binop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (binop_str op) (expr_str a) (expr_str b)
  | Ir.Cmp (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (cmpop_str op) (expr_str a) (expr_str b)
  | Ir.And (a, b) -> Printf.sprintf "(and %s %s)" (expr_str a) (expr_str b)
  | Ir.Or (a, b) -> Printf.sprintf "(or %s %s)" (expr_str a) (expr_str b)
  | Ir.Ite (c, t, e) ->
    Printf.sprintf "(ite %s %s %s)" (expr_str c) (expr_str t) (expr_str e)
  | Ir.Index (v, i) -> Printf.sprintf "(idx %s %s)" (expr_str v) (expr_str i)

let rec lvalue_str = function
  | Ir.Lvar (sc, n) -> Printf.sprintf "(%s %s)" (scope_str sc) (qstr n)
  | Ir.Lindex (lv, e) -> Printf.sprintf "(idx %s %s)" (lvalue_str lv) (expr_str e)

(* A variable declaration inside a section whose keyword implies the
   scope: the scope recorded in the var must match, or the file could
   not parse back to the same AST. *)
let var_str ~section expected (v : Ir.var) =
  if v.Ir.scope <> expected then
    perr "%s section: variable %s has scope %s" section v.Ir.name
      (Ir.scope_name v.Ir.scope);
  Printf.sprintf "(%s %s)" (qstr v.Ir.name) (ty_str v.Ir.ty)

let state_str ~section (v, init) =
  if v.Ir.scope <> Ir.State then
    perr "%s section: variable %s has scope %s" section v.Ir.name
      (Ir.scope_name v.Ir.scope);
  Printf.sprintf "(%s %s %s)" (qstr v.Ir.name) (ty_str v.Ir.ty)
    (value_str init)

(* --- structural forms (buffer + indent) --------------------------------- *)

let ind buf n = Buffer.add_string buf (String.make (2 * n) ' ')

let line buf n s =
  ind buf n;
  Buffer.add_string buf s;
  Buffer.add_char buf '\n'

(* A section of single-line items: "(inputs)" when empty, else one
   item per line. *)
(* Close the most recently opened structural form: the closing paren
   attaches to the previous line. *)
let close buf =
  let len = Buffer.length buf in
  if len > 0 && Buffer.nth buf (len - 1) = '\n' then Buffer.truncate buf (len - 1);
  Buffer.add_string buf ")\n"

let section buf n head items =
  if items = [] then line buf n (Printf.sprintf "(%s)" head)
  else begin
    line buf n (Printf.sprintf "(%s" head);
    List.iter (fun it -> line buf (n + 1) it) items;
    close buf
  end

let rec stmt buf n = function
  | Ir.Assign (lv, e) ->
    line buf n (Printf.sprintf "(set %s %s)" (lvalue_str lv) (expr_str e))
  | Ir.If { id; cond; then_; else_ } ->
    line buf n (Printf.sprintf "(if %d %s" id (expr_str cond));
    line buf (n + 1) "(then";
    List.iter (stmt buf (n + 2)) then_;
    close buf;
    if else_ <> [] then begin
      line buf (n + 1) "(else";
      List.iter (stmt buf (n + 2)) else_;
      close buf
    end;
    close buf
  | Ir.Switch { id; scrut; cases; default } ->
    line buf n (Printf.sprintf "(case %d %s" id (expr_str scrut));
    List.iter
      (fun (lbl, body) ->
        line buf (n + 1) (Printf.sprintf "(of %d" lbl);
        List.iter (stmt buf (n + 2)) body;
        close buf)
      cases;
    line buf (n + 1) "(default";
    List.iter (stmt buf (n + 2)) default;
    close buf;
    close buf

let stmts_section buf n head body =
  if body = [] then line buf n (Printf.sprintf "(%s)" head)
  else begin
    line buf n (Printf.sprintf "(%s" head);
    List.iter (stmt buf (n + 1)) body;
    close buf
  end

(* The five sections shared by (program ...) and (fragment ...). *)
let program_sections buf n ~inputs ~outputs ~states ~locals ~body =
  section buf n "inputs" (List.map (var_str ~section:"inputs" Ir.Input) inputs);
  section buf n "outputs"
    (List.map (var_str ~section:"outputs" Ir.Output) outputs);
  section buf n "states" (List.map (state_str ~section:"states") states);
  section buf n "locals" (List.map (var_str ~section:"locals" Ir.Local) locals);
  stmts_section buf n "body" body

let program buf n (p : Ir.program) =
  line buf n (Printf.sprintf "(program %s" (qstr p.Ir.name));
  program_sections buf (n + 1) ~inputs:p.Ir.inputs ~outputs:p.Ir.outputs
    ~states:p.Ir.states ~locals:p.Ir.locals ~body:p.Ir.body;
  close buf

let fragment buf n (f : Ir.fragment) =
  line buf n (Printf.sprintf "(fragment %s" (qstr f.Ir.f_name));
  program_sections buf (n + 1) ~inputs:f.Ir.f_inputs ~outputs:f.Ir.f_outputs
    ~states:f.Ir.f_states ~locals:f.Ir.f_locals ~body:f.Ir.f_body;
  close buf

(* --- diagrams ----------------------------------------------------------- *)

let src_str = function
  | None -> "_"
  | Some { M.s_block; s_port } -> Printf.sprintf "(%d %d)" s_block s_port

let wires_str srcs =
  "(wires"
  ^ Array.fold_left (fun acc s -> acc ^ " " ^ src_str s) "" srcs
  ^ ")"

(* Simple kinds print inline; container kinds (charts, conditional
   subsystems) open an indented sub-form. *)
let simple_kind_str = function
  | M.Inport (n, ty) -> Some (Printf.sprintf "(inport %s %s)" (qstr n) (ty_str ty))
  | M.Outport n -> Some (Printf.sprintf "(outport %s)" (qstr n))
  | M.Constant v -> Some (Printf.sprintf "(const %s)" (value_str v))
  | M.Gain g -> Some (Printf.sprintf "(gain %s)" (fstr g))
  | M.Sum signs ->
    Some
      ("(sum"
       ^ List.fold_left
           (fun acc s -> acc ^ (match s with M.Plus -> " +" | M.Minus -> " -"))
           "" signs
       ^ ")")
  | M.Product factors ->
    Some
      ("(product"
       ^ List.fold_left
           (fun acc f -> acc ^ (match f with M.Mul -> " *" | M.Div -> " /"))
           "" factors
       ^ ")")
  | M.Min_max (`Min, n) -> Some (Printf.sprintf "(min %d)" n)
  | M.Min_max (`Max, n) -> Some (Printf.sprintf "(max %d)" n)
  | M.Abs -> Some "(abs)"
  | M.Not -> Some "(not)"
  | M.Saturation { lower; upper } ->
    Some (Printf.sprintf "(sat %s %s)" (fstr lower) (fstr upper))
  | M.Relational op -> Some (Printf.sprintf "(rel %s)" (cmpop_str op))
  | M.Logical (op, n) ->
    let ops =
      match op with
      | M.L_and -> "and"
      | M.L_or -> "or"
      | M.L_xor -> "xor"
      | M.L_nand -> "nand"
      | M.L_nor -> "nor"
    in
    Some (Printf.sprintf "(logic %s %d)" ops n)
  | M.Compare_to_const (op, f) ->
    Some (Printf.sprintf "(cmpc %s %s)" (cmpop_str op) (fstr f))
  | M.Switch { cmp; threshold } ->
    Some (Printf.sprintf "(switch %s %s)" (cmpop_str cmp) (fstr threshold))
  | M.Multiport_switch { labels } ->
    Some
      ("(mswitch"
       ^ List.fold_left (fun acc l -> acc ^ Printf.sprintf " %d" l) "" labels
       ^ ")")
  | M.Unit_delay v -> Some (Printf.sprintf "(unit-delay %s)" (value_str v))
  | M.Delay { initial; length } ->
    Some (Printf.sprintf "(delay %s %d)" (value_str initial) length)
  | M.Discrete_integrator { initial; gain; lower; upper } ->
    Some
      (Printf.sprintf "(integ %s %s %s %s)" (fstr initial) (fstr gain)
         (fstr lower) (fstr upper))
  | M.Counter { initial; modulo } ->
    Some (Printf.sprintf "(counter %d %d)" initial modulo)
  | M.Data_store_read n -> Some (Printf.sprintf "(ds-read %s)" (qstr n))
  | M.Data_store_write n -> Some (Printf.sprintf "(ds-write %s)" (qstr n))
  | M.Data_store_write_element n ->
    Some (Printf.sprintf "(ds-write-elem %s)" (qstr n))
  | M.Selector -> Some "(selector)"
  | M.Chart _ | M.Enabled _ | M.If_else _ | M.Case_switch _ -> None

let rec block buf n (b : M.block) =
  match simple_kind_str b.M.kind with
  | Some k ->
    line buf n
      (Printf.sprintf "(block %d %s %s %s)" b.M.id (qstr b.M.bname) k
         (wires_str b.M.srcs))
  | None ->
    line buf n (Printf.sprintf "(block %d %s" b.M.id (qstr b.M.bname));
    (match b.M.kind with
     | M.Chart frag ->
       line buf (n + 1) "(chart-block";
       fragment buf (n + 2) frag;
       close buf
     | M.Enabled { sub; held } ->
       line buf (n + 1)
         (Printf.sprintf "(enabled %s" (if held then "held" else "reset"));
       diagram buf (n + 2) sub;
       close buf
     | M.If_else { then_sys; else_sys } ->
       line buf (n + 1) "(if-else";
       diagram buf (n + 2) then_sys;
       diagram buf (n + 2) else_sys;
       close buf
     | M.Case_switch { cases; default } ->
       line buf (n + 1) "(case-switch";
       List.iter
         (fun (lbl, sub) ->
           line buf (n + 2) (Printf.sprintf "(of %d" lbl);
           diagram buf (n + 3) sub;
           close buf)
         cases;
       (match default with
        | Some sub ->
          line buf (n + 2) "(default";
          diagram buf (n + 3) sub;
          close buf
        | None -> ());
       close buf
     | _ -> assert false);
    line buf (n + 1) (wires_str b.M.srcs);
    close buf

and diagram buf n (m : M.t) =
  line buf n (Printf.sprintf "(diagram %s" (qstr m.M.m_name));
  section buf (n + 1) "stores"
    (List.map
       (fun (name, ty, init) ->
         Printf.sprintf "(%s %s %s)" (qstr name) (ty_str ty) (value_str init))
       m.M.stores);
  line buf (n + 1) "(blocks";
  Array.iter (block buf (n + 2)) m.M.blocks;
  close buf;
  close buf

(* --- charts ------------------------------------------------------------- *)

let rec region buf n (r : C.region) =
  line buf n (Printf.sprintf "(region %s" (qstr r.C.initial));
  List.iter (state buf (n + 1)) r.C.states;
  List.iter (transition buf (n + 1)) r.C.transitions;
  close buf

and state buf n (s : C.state) =
  if s.C.entry = [] && s.C.during = [] && s.C.exit = [] && s.C.children = None
  then line buf n (Printf.sprintf "(state %s)" (qstr s.C.st_name))
  else begin
    line buf n (Printf.sprintf "(state %s" (qstr s.C.st_name));
    if s.C.entry <> [] then stmts_section buf (n + 1) "entry" s.C.entry;
    if s.C.during <> [] then stmts_section buf (n + 1) "during" s.C.during;
    if s.C.exit <> [] then stmts_section buf (n + 1) "exit" s.C.exit;
    (match s.C.children with
     | Some r ->
       line buf (n + 1) "(children";
       region buf (n + 2) r;
       close buf
     | None -> ());
    close buf
  end

and transition buf n (t : C.transition) =
  if t.C.t_action = [] then
    line buf n
      (Printf.sprintf "(trans %s %s (guard %s))" (qstr t.C.src) (qstr t.C.dst)
         (expr_str t.C.guard))
  else begin
    line buf n
      (Printf.sprintf "(trans %s %s (guard %s)" (qstr t.C.src) (qstr t.C.dst)
         (expr_str t.C.guard));
    stmts_section buf (n + 1) "action" t.C.t_action;
    close buf
  end

let chart buf n (c : C.t) =
  line buf n (Printf.sprintf "(chart %s" (qstr c.C.ch_name));
  section buf (n + 1) "inputs"
    (List.map (var_str ~section:"inputs" Ir.Input) c.C.inputs);
  section buf (n + 1) "outputs"
    (List.map (var_str ~section:"outputs" Ir.Output) c.C.outputs);
  section buf (n + 1) "data" (List.map (state_str ~section:"data") c.C.data);
  region buf (n + 1) c.C.top;
  close buf

(* --- entry point -------------------------------------------------------- *)

let print (src : Source.t) =
  let buf = Buffer.create 4096 in
  (match src with
   | Source.Diagram m -> diagram buf 0 m
   | Source.Chart c -> chart buf 0 c
   | Source.Program p -> program buf 0 p);
  Buffer.contents buf
