type outcome = Then | Else | Case of int | Default

type key = int * outcome

type t = {
  key : key;
  decision : int;
  outcome : outcome;
  guard : Ir.expr;
  parent : key option;
  depth : int;
}

(* Then < Else < Case k (by k) < Default, without allocating. *)
let compare_outcome a b =
  match (a, b) with
  | Case j, Case k -> Int.compare j k
  | _ ->
    let rank = function Then -> 0 | Else -> 1 | Case _ -> 2 | Default -> 3 in
    Int.compare (rank a) (rank b)

let compare_key (d1, o1) (d2, o2) =
  match Int.compare d1 d2 with
  | 0 -> compare_outcome o1 o2
  | c -> c

let equal_key a b = compare_key a b = 0

let pp_outcome ppf = function
  | Then -> Fmt.string ppf "then"
  | Else -> Fmt.string ppf "else"
  | Case k -> Fmt.pf ppf "case:%d" k
  | Default -> Fmt.string ppf "default"

let pp_key ppf (id, o) = Fmt.pf ppf "%d/%a" id pp_outcome o

let pp ppf b =
  Fmt.pf ppf "branch %a depth=%d guard=%a" pp_key b.key b.depth Ir.pp_expr
    b.guard

let of_program (prog : Ir.program) =
  let acc = ref [] in
  let add ~parent ~depth ~decision ~outcome ~guard =
    let b = { key = (decision, outcome); decision; outcome; guard; parent; depth } in
    acc := b :: !acc;
    b.key
  in
  let rec stmts parent depth ss = List.iter (stmt parent depth) ss
  and stmt parent depth = function
    | Ir.Assign _ -> ()
    | Ir.If { id; cond; then_; else_ } ->
      let kt = add ~parent ~depth ~decision:id ~outcome:Then ~guard:cond in
      stmts (Some kt) (depth + 1) then_;
      let ke = add ~parent ~depth ~decision:id ~outcome:Else ~guard:cond in
      stmts (Some ke) (depth + 1) else_
    | Ir.Switch { id; scrut; cases; default } ->
      List.iter
        (fun (k, ss) ->
          let key =
            add ~parent ~depth ~decision:id ~outcome:(Case k) ~guard:scrut
          in
          stmts (Some key) (depth + 1) ss)
        cases;
      let kd = add ~parent ~depth ~decision:id ~outcome:Default ~guard:scrut in
      stmts (Some kd) (depth + 1) default
  in
  stmts None 0 prog.body;
  List.rev !acc

let sort_by_depth branches =
  List.stable_sort (fun a b -> Int.compare a.depth b.depth) branches

let count prog = List.length (of_program prog)

module Key_ord = struct
  type t = key

  let compare = compare_key
end

module Key_set = Set.Make (Key_ord)
