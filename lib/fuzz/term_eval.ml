(* Tree-walking evaluation of solver terms.  It shares no code with the
   CSP's compiled evaluator ({!Solver.Compiled}), so the solver oracle
   checks [Sat] answers with it and the tests use it as the compiled
   evaluator's reference. *)

module Value = Slim.Value
module Term = Solver.Term

let eval_node recur env = function
  | Term.Cst v -> v
  | Term.Tvar x -> env x
  | Term.Tunop (op, e) -> Term.eval_unop op (recur e)
  | Term.Tbinop (op, a, b) -> Term.eval_binop op (recur a) (recur b)
  | Term.Tcmp (op, a, b) -> Value.bool (Term.eval_cmp op (recur a) (recur b))
  | Term.Tand (a, b) -> Value.bool (Value.to_bool (recur a) && Value.to_bool (recur b))
  | Term.Tor (a, b) -> Value.bool (Value.to_bool (recur a) || Value.to_bool (recur b))
  | Term.Tnot e -> Value.bool (not (Value.to_bool (recur e)))
  | Term.Tite (c, a, b) -> if Value.to_bool (recur c) then recur a else recur b

(* Small terms evaluate by plain recursion; large (shared) ones memoize
   per node so DAG evaluation is linear in unique nodes.  [env] must be
   a pure function of its argument (every caller passes a map or a slot
   lookup); failed evaluations are not cached, so a raising node raises
   again on the next visit exactly as tree walking did. *)
let eval env (t : Term.t) =
  if Term.size t <= 256 then
    let rec go (t : Term.t) = eval_node go env t.node in
    go t
  else begin
    let tbl = Hashtbl.create 1024 in
    let rec go (t : Term.t) =
      match t.node with
      | Term.Cst v -> v
      | Term.Tvar x -> env x
      | _ -> (
        match Hashtbl.find_opt tbl t.id with
        | Some v -> v
        | None ->
          let v = eval_node go env t.node in
          Hashtbl.add tbl t.id v;
          v)
    in
    go t
  end
