(* Slot resolution, once per program (see lower.mli for the layout). *)

type expr =
  | Const of int
  | Slot of int
  | Unbound of Ir.scope * string
  | Unop of Ir.unop * expr
  | Binop of Ir.binop * expr * expr
  | Cmp of Ir.cmpop * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Ite of expr * expr * expr
  | Index of expr * expr

type lvalue =
  | Lslot of int
  | Lunbound of Ir.scope * string
  | Lindex of lvalue * expr

type stmt =
  | Assign of lvalue * expr
  | If of {
      id : int;
      pos : int;
      atom_base : int;
      cond : expr;
      atoms : expr list;
      input_state_only : bool;
      then_ : stmt list;
      else_ : stmt list;
    }
  | Switch of {
      id : int;
      pos : int;
      scrut : expr;
      labels : int list;
      input_state_only : bool;
      cases : (int * stmt list) list;
      default : stmt list;
      outcomes : Branch.outcome list;
    }

module Itbl = Hashtbl.Make (Int)
module Stbl = Hashtbl.Make (String)

(* Per scope (in [Ir.scope] declaration order), name -> slot. *)
type names = int Stbl.t array

type t = {
  vars : Ir.var array;
  n_inputs : int;
  n_states : int;
  local_base : int;
  output_base : int;
  n_slots : int;
  consts : Value.t array;
  body : stmt list;
  decisions : stmt array;
  names : names;
}

let scope_index : Ir.scope -> int = function
  | Ir.Input -> 0
  | Ir.Output -> 1
  | Ir.State -> 2
  | Ir.Local -> 3

let slot t scope name = Stbl.find_opt t.names.(scope_index scope) name

let scope_of t s : Ir.scope =
  if s < t.n_inputs then Ir.Input
  else if s < t.local_base then Ir.State
  else if s < t.output_base then Ir.Local
  else Ir.Output


let rec lvalue_root = function
  | Lslot s -> Some s
  | Lunbound _ -> None
  | Lindex (l, _) -> lvalue_root l

(* The atoms of a lowered guard, as [Ir.atoms_of_condition] finds them
   in the source guard: maximal subterms not built with And/Or/Not. *)
let atoms_of cond =
  let rec go e acc =
    match e with
    | And (a, b) | Or (a, b) -> go a (go b acc)
    | Unop (Ir.Not, e) -> go e acc
    | Const _ | Slot _ | Unbound _ | Unop _ | Binop _ | Cmp _ | Ite _ | Index _ ->
      e :: acc
  in
  go cond []

module Iset = Set.Make (Int)

(* Does the guard read only inputs and state slots outside [written]
   (no local or output)? *)
let rec input_state_only local_base written = function
  | Const _ -> true
  | Slot s -> s < local_base && not (Iset.mem s written)
  | Unbound (scope, _) -> scope = Ir.Input || scope = Ir.State
  | Unop (_, a) -> input_state_only local_base written a
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) | Index (a, b) ->
    input_state_only local_base written a && input_state_only local_base written b
  | Ite (c, a, b) -> List.for_all (input_state_only local_base written) [ c; a; b ]

let rec fold f acc = function
  | [] -> acc
  | s :: rest ->
    let acc = f acc s in
    (match s with
     | Assign _ -> fold f acc rest
     | If { then_; else_; _ } -> fold f (fold f (fold f acc then_) else_) rest
     | Switch { cases; default; _ } ->
       let acc = List.fold_left (fun acc (_, b) -> fold f acc b) acc cases in
       fold f (fold f acc default) rest)

let of_program (prog : Ir.program) =
  let vars =
    Array.of_list
      (prog.inputs @ List.map fst prog.states @ prog.locals @ prog.outputs)
  in
  let n_inputs = List.length prog.inputs in
  let n_states = List.length prog.states in
  let local_base = n_inputs + n_states in
  let output_base = local_base + List.length prog.locals in
  (* [replace] in declaration order: a repeated name resolves to its
     last declaration, as the reference interpreter binds it *)
  let table base vs =
    let tbl = Stbl.create (2 * List.length vs) in
    List.iteri (fun i (v : Ir.var) -> Stbl.replace tbl v.name (base + i)) vs;
    tbl
  in
  let names =
    [| table 0 prog.inputs; table output_base prog.outputs;
       table n_inputs (List.map fst prog.states); table local_base prog.locals |]
  in
  let slots = Array.init (Array.length vars) (fun s -> Slot s) in
  let consts = ref [] and n_consts = ref 0 and ints = Itbl.create 64 in
  let const v =
    consts := v :: !consts;
    incr n_consts;
    let c = Const (!n_consts - 1) in
    (match v with Value.Int n -> Itbl.replace ints n c | _ -> ());
    c
  in
  let rec expr (e : Ir.expr) =
    match e with
    | Ir.Const (Value.Int n as v) -> ( try Itbl.find ints n with Not_found -> const v)
    | Ir.Const v -> const v
    | Ir.Var (scope, name) -> (
      match Stbl.find names.(scope_index scope) name with
      | s -> slots.(s)
      | exception Not_found -> Unbound (scope, name))
    | Ir.Unop (op, a) -> Unop (op, expr a)
    | Ir.Binop (op, a, b) -> Binop (op, expr a, expr b)
    | Ir.Cmp (op, a, b) -> Cmp (op, expr a, expr b)
    | Ir.And (a, b) -> And (expr a, expr b)
    | Ir.Or (a, b) -> Or (expr a, expr b)
    | Ir.Ite (c, a, b) -> Ite (expr c, expr a, expr b)
    | Ir.Index (a, i) -> Index (expr a, expr i)
  in
  let rec lvalue (l : Ir.lvalue) =
    match l with
    | Ir.Lvar (scope, name) -> (
      match Stbl.find names.(scope_index scope) name with
      | s -> Lslot s
      | exception Not_found -> Lunbound (scope, name))
    | Ir.Lindex (l, i) -> Lindex (lvalue l, expr i)
  in
  (* a decision is numbered before its arms are lowered, so positions
     and atom ids follow syntactic pre-order; [written] holds the state
     slots some path from the start of the step to here may write *)
  let n_decisions = ref 0 and n_atoms = ref 0 and written = ref Iset.empty in
  (* each arm from the same set; after the join, any of theirs *)
  let rec arm w0 joined body =
    written := w0;
    let body = List.map stmt body in
    if !written != w0 then
      joined := if !joined == w0 then !written else Iset.union !joined !written;
    body
  and stmt (s : Ir.stmt) =
    match s with
    | Ir.Assign (l, e) ->
      let e = expr e in
      let l = lvalue l in
      (match lvalue_root l with
       | Some slot when slot >= n_inputs && slot < local_base ->
         written := Iset.add slot !written
       | Some _ | None -> ());
      Assign (l, e)
    | Ir.If { id; cond; then_; else_ } ->
      let pos = !n_decisions and atom_base = !n_atoms in
      let cond = expr cond in
      let atoms = atoms_of cond in
      n_decisions := pos + 1;
      n_atoms := atom_base + List.length atoms;
      let w0 = !written and joined = ref !written in
      let input_state_only = input_state_only local_base w0 cond in
      let then_ = arm w0 joined then_ in
      let else_ = arm w0 joined else_ in
      written := !joined;
      If { id; pos; atom_base; cond; atoms; input_state_only; then_; else_ }
    | Ir.Switch { id; scrut; cases; default } ->
      let pos = !n_decisions in
      n_decisions := pos + 1;
      let scrut = expr scrut in
      let labels = List.map fst cases in
      let outcomes = List.map (fun l -> Branch.Case l) labels @ [ Branch.Default ] in
      let w0 = !written and joined = ref !written in
      let input_state_only = input_state_only local_base w0 scrut in
      let cases = List.map (fun (k, b) -> (k, arm w0 joined b)) cases in
      let default = arm w0 joined default in
      written := !joined;
      Switch { id; pos; scrut; labels; input_state_only; cases; default; outcomes }
  in
  let body = List.map stmt prog.body in
  let decisions =
    fold
      (fun acc s -> match s with Assign _ -> acc | If _ | Switch _ -> s :: acc)
      [] body
  in
  {
    vars;
    n_inputs;
    n_states;
    local_base;
    output_base;
    n_slots = Array.length vars;
    consts = Array.of_list (List.rev !consts);
    body;
    decisions = Array.of_list (List.rev decisions);
    names;
  }
