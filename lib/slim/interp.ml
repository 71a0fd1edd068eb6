(* The original map/Hashtbl interpreter, kept as [run_step_reference]:
   it is the oracle for the differential tests (test/test_exec.ml, the
   fuzz exec oracle) and deliberately still uses List.assoc_opt Switch
   dispatch so it stays independent of the slot-compiled core (Exec). *)

module Smap = Exec.Smap

type snapshot = Value.t Smap.t
type inputs = Value.t Smap.t
type outputs = Value.t Smap.t

type event = Exec.event =
  | Branch_hit of Branch.key
  | Cond_vector of { id : int; vector : bool array; outcome : bool }

exception Eval_error = Exec.Eval_error

let eval_error fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

let initial_state (prog : Ir.program) =
  List.fold_left
    (fun acc ((v : Ir.var), init) -> Smap.add v.name (Value.copy init) acc)
    Smap.empty prog.states

(* --- reference interpreter (differential-test oracle) ------------------- *)

type env = {
  e_inputs : (string, Value.t) Hashtbl.t;
  e_states : (string, Value.t) Hashtbl.t;
  e_locals : (string, Value.t) Hashtbl.t;
  e_outputs : (string, Value.t) Hashtbl.t;
  on_event : event -> unit;
}

let table_of env scope =
  match (scope : Ir.scope) with
  | Ir.Input -> env.e_inputs
  | Ir.Output -> env.e_outputs
  | Ir.State -> env.e_states
  | Ir.Local -> env.e_locals

let read env scope name =
  match Hashtbl.find_opt (table_of env scope) name with
  | Some v -> v
  | None -> eval_error "unbound %s variable %s" (Ir.scope_name scope) name

(* Stores copy the value (a no-op for scalars), so a variable never
   shares a vector with another variable or with a program constant.
   Only a declared variable can be written: a name no declaration binds
   raises, as a read of it does. *)
let write env scope name v =
  let table = table_of env scope in
  if not (Hashtbl.mem table name) then
    eval_error "unbound %s variable %s" (Ir.scope_name scope) name;
  Hashtbl.replace table name (Value.copy v)

(* Guards are evaluated fully (no short circuit), matching Simulink logic
   blocks, so every atom value is observable for condition/MCDC coverage. *)
let rec eval env (e : Ir.expr) : Value.t =
  match e with
  | Const v -> v
  | Var (scope, name) -> read env scope name
  | Unop (op, e) ->
    let v = eval env e in
    (match op with
     | Neg -> Value.neg v
     | Not -> Value.Bool (not (Value.to_bool v))
     | Abs_op -> Value.abs_v v
     | To_real -> Value.Real (Value.to_real v)
     | To_int -> Value.Int (Value.to_int v)
     | Floor -> Value.floor_v v
     | Ceil -> Value.ceil_v v)
  | Binop (op, a, b) ->
    let va = eval env a in
    let vb = eval env b in
    (match op with
     | Add -> Value.add va vb
     | Sub -> Value.sub va vb
     | Mul -> Value.mul va vb
     | Div -> Value.div va vb
     | Mod -> Value.modulo va vb
     | Min -> Value.min_v va vb
     | Max -> Value.max_v va vb)
  | Cmp (op, a, b) ->
    let va = eval env a in
    let vb = eval env b in
    let c () = Value.compare_num va vb in
    let r =
      match op with
      | Eq -> Value.equal va vb
      | Ne -> not (Value.equal va vb)
      | Lt -> c () < 0
      | Le -> c () <= 0
      | Gt -> c () > 0
      | Ge -> c () >= 0
    in
    Value.Bool r
  | And (a, b) ->
    let va = Value.to_bool (eval env a) in
    let vb = Value.to_bool (eval env b) in
    Value.Bool (va && vb)
  | Or (a, b) ->
    let va = Value.to_bool (eval env a) in
    let vb = Value.to_bool (eval env b) in
    Value.Bool (va || vb)
  | Ite (c, t, e) ->
    if Value.to_bool (eval env c) then eval env t else eval env e
  | Index (v, i) ->
    let a = Value.to_vec (eval env v) in
    let k = Value.to_int (eval env i) in
    if k < 0 || k >= Array.length a then
      eval_error "index %d out of bounds [0,%d)" k (Array.length a)
    else a.(k)

let eval_lvalue_write env (lhs : Ir.lvalue) v =
  match lhs with
  | Lvar (scope, name) ->
    (match scope with
     | Ir.Input -> eval_error "assignment to input %s" name
     | Ir.Output | Ir.State | Ir.Local -> write env scope name v)
  | Lindex (inner, idx) ->
    let container =
      let rec resolve = function
        | Ir.Lvar (scope, name) -> read env scope name
        | Ir.Lindex (l, i) ->
          let a = Value.to_vec (resolve l) in
          let k = Value.to_int (eval env i) in
          if k < 0 || k >= Array.length a then
            eval_error "lvalue index %d out of bounds" k
          else a.(k)
      in
      resolve inner
    in
    let a = Value.to_vec container in
    let k = Value.to_int (eval env idx) in
    if k < 0 || k >= Array.length a then
      eval_error "lvalue index %d out of bounds [0,%d)" k (Array.length a)
    else a.(k) <- Value.copy v

let eval_guard env id cond =
  let atoms = Ir.atoms_of_condition cond in
  let vector =
    Array.of_list (List.map (fun a -> Value.to_bool (eval env a)) atoms)
  in
  let outcome = Value.to_bool (eval env cond) in
  env.on_event (Cond_vector { id; vector; outcome });
  outcome

let rec exec_stmts env ss = List.iter (exec_stmt env) ss

and exec_stmt env = function
  | Ir.Assign (lhs, e) ->
    let v = eval env e in
    eval_lvalue_write env lhs v
  | Ir.If { id; cond; then_; else_ } ->
    if eval_guard env id cond then begin
      env.on_event (Branch_hit (id, Branch.Then));
      exec_stmts env then_
    end
    else begin
      env.on_event (Branch_hit (id, Branch.Else));
      exec_stmts env else_
    end
  | Ir.Switch { id; scrut; cases; default } ->
    let k = Value.to_int (eval env scrut) in
    (match List.assoc_opt k cases with
     | Some ss ->
       env.on_event (Branch_hit (id, Branch.Case k));
       exec_stmts env ss
     | None ->
       env.on_event (Branch_hit (id, Branch.Default));
       exec_stmts env default)

let tel_ref_steps = Telemetry.Counter.make "interp.steps"

let run_step_reference ?(on_event = fun _ -> ()) (prog : Ir.program) snapshot
    inputs =
  Telemetry.Counter.incr tel_ref_steps;
  let env =
    {
      e_inputs = Hashtbl.create 16;
      e_states = Hashtbl.create 32;
      e_locals = Hashtbl.create 64;
      e_outputs = Hashtbl.create 16;
      on_event;
    }
  in
  let bind_input (v : Ir.var) =
    let value =
      match Smap.find_opt v.name inputs with
      | Some x -> Value.copy x
      | None -> Value.default_of_ty v.ty
    in
    Hashtbl.replace env.e_inputs v.name value
  in
  List.iter bind_input prog.inputs;
  let bind_state ((v : Ir.var), init) =
    let value =
      match Smap.find_opt v.name snapshot with
      | Some x -> Value.copy x
      | None -> Value.copy init
    in
    Hashtbl.replace env.e_states v.name value
  in
  List.iter bind_state prog.states;
  List.iter
    (fun (v : Ir.var) ->
      Hashtbl.replace env.e_locals v.name (Value.default_of_ty v.ty))
    prog.locals;
  List.iter
    (fun (v : Ir.var) ->
      Hashtbl.replace env.e_outputs v.name (Value.default_of_ty v.ty))
    prog.outputs;
  exec_stmts env prog.body;
  let outputs =
    List.fold_left
      (fun acc (v : Ir.var) ->
        Smap.add v.name (Value.copy (Hashtbl.find env.e_outputs v.name)) acc)
      Smap.empty prog.outputs
  in
  let snapshot' =
    List.fold_left
      (fun acc ((v : Ir.var), _) ->
        Smap.add v.name (Value.copy (Hashtbl.find env.e_states v.name)) acc)
      Smap.empty prog.states
  in
  (outputs, snapshot')

let inputs_of_list l =
  List.fold_left (fun acc (k, v) -> Smap.add k v acc) Smap.empty l

let snapshot_equal a b = Smap.equal Value.equal a b

let pp_binding ppf (k, v) = Fmt.pf ppf "%s=%a" k Value.pp v

let pp_snapshot ppf s =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") pp_binding) (Smap.bindings s)
