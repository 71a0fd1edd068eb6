(* A constraint compiled for the sampler.

   Registers.  Every value lives unboxed in a register: a tag, an int
   (a boolean as 0 or 1) and a float, and for a vector constant the
   value itself.  The first registers are the candidate inputs, one per
   slot of the layout; a bound [Tvar] is its slot's register and needs
   no node.  Every other unique node of the term DAG gets the next
   register, its operands numbered before it.  Constants are loaded
   when the term is compiled.

   Evaluation.  [eval] bumps an epoch and computes the root on demand:
   a node computes its operands, then stamps its register with the
   epoch, so a node shared in the DAG is computed once per candidate
   and evaluation stays linear in unique nodes.  Each operation is
   [Value]'s on the unboxed registers, case for case, and the order of
   the reference tree walk ([Fuzzer.Term_eval]) is kept where it can be
   seen: the operands of an arithmetic operation or a comparison right
   to left, as OCaml evaluates the arguments of
   [eval_binop op (eval a) (eval b)], and [&&], [||] and [Ite] skip the
   operand the walk skips.  So a candidate gives the
   same value, or raises [Type_error] or [Not_found] in the same cases
   (an unbound name raises [Not_found] when it is reached).  The
   exceptions are preallocated, and nothing else allocates either
   except [Float.min] and [Float.max] on reals, which are not
   inlined. *)

module Value = Slim.Value
module Ir = Slim.Ir

type op =
  | Load  (** an input or a constant: nothing to compute *)
  | Unbound
  | Neg
  | Not
  | Abs
  | To_real
  | To_int
  | Floor
  | Ceil
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Min
  | Max
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
  | Ite

let t_bool = 0
let t_int = 1
let t_real = 2
let t_vec = 3

type t = {
  ops : op array;
  args : int array;  (* three operand registers per register *)
  root : int;
  tags : int array;
  ints : int array;
  reals : float array;
  vecs : Value.t array;
  stamps : int array;
  mutable epoch : int;
}

let type_error = Value.Type_error "sample: ill-typed operand"

let[@inline] set_bool p r b =
  p.tags.(r) <- t_bool;
  p.ints.(r) <- Bool.to_int b

let[@inline] set_int p r n =
  p.tags.(r) <- t_int;
  p.ints.(r) <- n

let[@inline] set_real p r f =
  p.tags.(r) <- t_real;
  p.reals.(r) <- f

let load p r = function
  | Value.Bool b -> set_bool p r b
  | Value.Int n -> set_int p r n
  | Value.Real f -> set_real p r f
  | Value.Vec _ as v ->
    p.tags.(r) <- t_vec;
    p.vecs.(r) <- v

(* [Value.to_real] of a scalar register *)
let[@inline] real_of p r =
  if p.tags.(r) = t_real then p.reals.(r) else float_of_int p.ints.(r)

(* [Value.to_bool] *)
let[@inline] truth p r =
  let tag = p.tags.(r) in
  if tag = t_real then p.reals.(r) <> 0.0
  else if tag = t_vec then raise_notrace type_error
  else p.ints.(r) <> 0

let[@inline] both_int p a b = p.tags.(a) = t_int && p.tags.(b) = t_int
let[@inline] any_vec p a b = p.tags.(a) = t_vec || p.tags.(b) = t_vec

(* [Value.equal] *)
let equal p a b =
  let ta = p.tags.(a) and tb = p.tags.(b) in
  if ta = t_vec || tb = t_vec then
    ta = tb && Value.equal p.vecs.(a) p.vecs.(b)
  else if ta = t_bool || tb = t_bool then ta = tb && p.ints.(a) = p.ints.(b)
  else if ta = t_int && tb = t_int then p.ints.(a) = p.ints.(b)
  else Float.compare (real_of p a) (real_of p b) = 0

(* [Value.compare_num] *)
let compare_num p a b =
  if both_int p a b then Int.compare p.ints.(a) p.ints.(b)
  else if any_vec p a b then raise_notrace type_error
  else Float.compare (real_of p a) (real_of p b)

let copy p ~src r =
  let tag = p.tags.(src) in
  p.tags.(r) <- tag;
  p.ints.(r) <- p.ints.(src);
  p.reals.(r) <- p.reals.(src);
  if tag = t_vec then p.vecs.(r) <- p.vecs.(src)

let rec ev p r =
  if p.stamps.(r) <> p.epoch then
    match p.ops.(r) with
    | Load -> ()
    | Unbound -> raise_notrace Not_found
    | op ->
      let k = 3 * r in
      compute p r op p.args.(k) p.args.(k + 1) p.args.(k + 2);
      p.stamps.(r) <- p.epoch

and compute p r op a b c =
  match op with
  | Load | Unbound -> assert false
  | Neg | Not | Abs | To_real | To_int | Floor | Ceil -> (
    ev p a;
    let tag = p.tags.(a) in
    match op with
    | Not -> set_bool p r (not (truth p a))
    | To_real ->
      if tag = t_vec then raise_notrace type_error else set_real p r (real_of p a)
    | To_int ->
      if tag = t_real then set_int p r (int_of_float (Float.trunc p.reals.(a)))
      else if tag = t_vec then raise_notrace type_error
      else set_int p r p.ints.(a)
    | _ ->
      if tag = t_int then
        set_int p r
          (match op with
           | Neg -> - p.ints.(a)
           | Abs -> abs p.ints.(a)
           | _ -> p.ints.(a))
      else if tag = t_real then
        set_real p r
          (let x = p.reals.(a) in
           match op with
           | Neg -> -.x
           | Abs -> Float.abs x
           | Floor -> Float.floor x
           | _ -> Float.ceil x)
      else raise_notrace type_error)
  | Add | Sub | Mul | Div | Mod | Min | Max ->
    ev p b;
    ev p a;
    if both_int p a b then begin
      let x = p.ints.(a) and y = p.ints.(b) in
      if y = 0 && (op = Div || op = Mod) then raise_notrace type_error;
      set_int p r
        (match op with
         | Add -> x + y
         | Sub -> x - y
         | Mul -> x * y
         | Div -> x / y
         | Mod ->
           let m = x mod y in
           if (m < 0 && y > 0) || (m > 0 && y < 0) then m + y else m
         | Min -> if x <= y then x else y
         | _ -> if x >= y then x else y)
    end
    else if any_vec p a b then raise_notrace type_error
    else begin
      let x = real_of p a and y = real_of p b in
      if y = 0.0 && (op = Div || op = Mod) then raise_notrace type_error;
      set_real p r
        (match op with
         | Add -> x +. y
         | Sub -> x -. y
         | Mul -> x *. y
         | Div -> x /. y
         | Mod ->
           let m = Float.rem x y in
           if (m < 0.0 && y > 0.0) || (m > 0.0 && y < 0.0) then m +. y else m
         | Min -> Float.min x y
         | _ -> Float.max x y)
    end
  | Eq | Ne ->
    ev p b;
    ev p a;
    set_bool p r (equal p a b = (op = Eq))
  | Lt | Le | Gt | Ge ->
    ev p b;
    ev p a;
    let c = compare_num p a b in
    set_bool p r
      (match op with
       | Lt -> c < 0
       | Le -> c <= 0
       | Gt -> c > 0
       | _ -> c >= 0)
  | And ->
    ev p a;
    set_bool p r
      (truth p a
       &&
       (ev p b;
        truth p b))
  | Or ->
    ev p a;
    set_bool p r
      (truth p a
      ||
      (ev p b;
       truth p b))
  | Ite ->
    ev p a;
    if truth p a then begin
      ev p b;
      copy p ~src:b r
    end
    else begin
      ev p c;
      copy p ~src:c r
    end

let unop_code = function
  | Ir.Neg -> Neg
  | Ir.Not -> Not
  | Ir.Abs_op -> Abs
  | Ir.To_real -> To_real
  | Ir.To_int -> To_int
  | Ir.Floor -> Floor
  | Ir.Ceil -> Ceil

let binop_code = function
  | Ir.Add -> Add
  | Ir.Sub -> Sub
  | Ir.Mul -> Mul
  | Ir.Div -> Div
  | Ir.Mod -> Mod
  | Ir.Min -> Min
  | Ir.Max -> Max

let cmp_code = function
  | Ir.Eq -> Eq
  | Ir.Ne -> Ne
  | Ir.Lt -> Lt
  | Ir.Le -> Le
  | Ir.Gt -> Gt
  | Ir.Ge -> Ge

let compile (layout : Hc4.layout) (t : Term.t) =
  let inputs = Array.length layout.Hc4.names in
  (* registers past the inputs, operands first, by term id *)
  let regs = Hashtbl.create 64 in
  let nodes = ref [] and next = ref inputs in
  let rec number (t : Term.t) =
    match t.Term.node with
    | Term.Tvar x when Hashtbl.mem layout.Hc4.slot_of_name x ->
      Hashtbl.find layout.Hc4.slot_of_name x
    | _ -> (
      match Hashtbl.find regs t.Term.id with
      | r -> r
      | exception Not_found ->
        let code =
          match t.Term.node with
          | Term.Cst _ -> (Load, 0, 0, 0)
          | Term.Tvar _ -> (Unbound, 0, 0, 0)
          | Term.Tunop (op, e) -> (unop_code op, number e, 0, 0)
          | Term.Tnot e -> (Not, number e, 0, 0)
          | Term.Tbinop (op, a, b) -> (binop_code op, number a, number b, 0)
          | Term.Tcmp (op, a, b) -> (cmp_code op, number a, number b, 0)
          | Term.Tand (a, b) -> (And, number a, number b, 0)
          | Term.Tor (a, b) -> (Or, number a, number b, 0)
          | Term.Tite (c, a, b) -> (Ite, number c, number a, number b)
        in
        let r = !next in
        incr next;
        Hashtbl.add regs t.Term.id r;
        nodes := (r, t, code) :: !nodes;
        r)
  in
  let root = number t in
  let n = !next in
  let p =
    {
      ops = Array.make n Load;
      args = Array.make (3 * n) 0;
      root;
      tags = Array.make n t_bool;
      ints = Array.make n 0;
      reals = Array.make n 0.0;
      vecs = Array.make n (Value.Bool false);
      stamps = Array.make n (-1);
      epoch = 0;
    }
  in
  List.iter
    (fun (r, (t : Term.t), (op, a, b, c)) ->
      p.ops.(r) <- op;
      p.args.(3 * r) <- a;
      p.args.((3 * r) + 1) <- b;
      p.args.((3 * r) + 2) <- c;
      match t.Term.node with Term.Cst v -> load p r v | _ -> ())
    !nodes;
  p

let eval p =
  p.epoch <- p.epoch + 1;
  ev p p.root

let holds p =
  eval p;
  p.tags.(p.root) = t_bool && p.ints.(p.root) <> 0

let set_input = load

let input p r =
  let tag = p.tags.(r) in
  if tag = t_bool then Value.bool (p.ints.(r) <> 0)
  else if tag = t_int then Value.int p.ints.(r)
  else if tag = t_real then Value.Real p.reals.(r)
  else p.vecs.(r)

let result p =
  eval p;
  input p p.root
