(* A program's structure as the [Ir] walks computed it before the
   lowering built the branch and decision tables: the branch table of
   Definition 1, the decisions in syntactic order with their guards,
   and each guard as a function of its atom vector.  Kept as an
   independent reference: the "structure = reference" property in
   test_exec.ml checks [Slim.Exec]'s tables against it, and
   [Ref_tracker] takes its decision info from here. *)

module Ir = Slim.Ir
module Branch = Slim.Branch

let branches_of_program (prog : Ir.program) =
  let acc = ref [] in
  let add ~parent ~depth ~decision ~outcome ~guard =
    let b = { Branch.key = (decision, outcome); decision; outcome; guard; parent; depth } in
    acc := b :: !acc;
    b.key
  in
  let rec stmts parent depth ss = List.iter (stmt parent depth) ss
  and stmt parent depth = function
    | Ir.Assign _ -> ()
    | Ir.If { id; cond; then_; else_ } ->
      let kt = add ~parent ~depth ~decision:id ~outcome:Branch.Then ~guard:cond in
      stmts (Some kt) (depth + 1) then_;
      let ke = add ~parent ~depth ~decision:id ~outcome:Branch.Else ~guard:cond in
      stmts (Some ke) (depth + 1) else_
    | Ir.Switch { id; scrut; cases; default } ->
      List.iter
        (fun (k, ss) ->
          let key =
            add ~parent ~depth ~decision:id ~outcome:(Branch.Case k) ~guard:scrut
          in
          stmts (Some key) (depth + 1) ss)
        cases;
      let kd = add ~parent ~depth ~decision:id ~outcome:Branch.Default ~guard:scrut in
      stmts (Some kd) (depth + 1) default
  in
  stmts None 0 prog.body;
  List.rev !acc

let decisions_of_program (prog : Ir.program) =
  let acc = ref [] in
  let rec stmts ss = List.iter stmt ss
  and stmt = function
    | Ir.Assign _ -> ()
    | Ir.If { id; cond; then_; else_ } ->
      acc := (id, `If cond) :: !acc;
      stmts then_;
      stmts else_
    | Ir.Switch { id; scrut; cases; default } ->
      acc := (id, `Switch (scrut, List.map fst cases)) :: !acc;
      List.iter (fun (_, ss) -> stmts ss) cases;
      stmts default
  in
  stmts prog.body;
  List.rev !acc

(* A guard as a function of its atom vector, atoms in
   [Ir.atoms_of_condition] order (left to right). *)
let guard_fn (cond : Ir.expr) : bool array -> bool =
  let counter = ref 0 in
  let rec build e =
    match (e : Ir.expr) with
    | And (a, b) ->
      let fa = build a in
      let fb = build b in
      fun v ->
        (* evaluate both: SLIM logic is non-short-circuit *)
        let ra = fa v in
        let rb = fb v in
        ra && rb
    | Or (a, b) ->
      let fa = build a in
      let fb = build b in
      fun v ->
        let ra = fa v in
        let rb = fb v in
        ra || rb
    | Unop (Not, inner) ->
      let f = build inner in
      fun v -> not (f v)
    | Const _ | Var _ | Unop _ | Binop _ | Cmp _ | Ite _ | Index _ ->
      let i = !counter in
      incr counter;
      fun v -> v.(i)
  in
  build cond

type decision_info = {
  d_id : int;
  d_atom_count : int;  (** 0 for a [Switch] *)
  d_fn : bool array -> bool;  (** the guard over its atoms ([If] only) *)
}

type t = {
  branches : Branch.t list;
  decisions : decision_info list;
  decision_total : int;  (** number of branches *)
  condition_total : int;  (** 2 x number of atoms over all [If] guards *)
  mcdc_total : int;  (** number of atoms over all [If] guards *)
}

let of_program prog =
  let branches = branches_of_program prog in
  let decisions =
    List.map
      (fun (id, d) ->
        match d with
        | `If cond ->
          {
            d_id = id;
            d_atom_count = List.length (Ir.atoms_of_condition cond);
            d_fn = guard_fn cond;
          }
        | `Switch _ -> { d_id = id; d_atom_count = 0; d_fn = (fun _ -> false) })
      (decisions_of_program prog)
  in
  let atoms = List.fold_left (fun n d -> n + d.d_atom_count) 0 decisions in
  {
    branches;
    decisions;
    decision_total = List.length branches;
    condition_total = 2 * atoms;
    mcdc_total = atoms;
  }

(* Unique-cause MC/DC with masking: does the pair show the independent
   effect of atom [i]?  The outcomes differ, atom [i] differs, and
   every other differing atom is masked (flipping it alone changes
   neither vector's outcome). *)
let mcdc_pair_ok fn i (v1, o1) (v2, o2) =
  Array.length v1 = Array.length v2
  && o1 <> o2
  && v1.(i) <> v2.(i)
  &&
  let masked vec j =
    let flipped = Array.copy vec in
    flipped.(j) <- not flipped.(j);
    fn flipped = fn vec
  in
  let ok = ref true in
  Array.iteri
    (fun j x ->
      if j <> i && x <> v2.(j) then
        if not (masked v1 j && masked v2 j) then ok := false)
    v1;
  !ok
