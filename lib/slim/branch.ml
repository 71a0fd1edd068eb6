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

let sort_by_depth branches =
  List.stable_sort (fun a b -> Int.compare a.depth b.depth) branches

module Key_ord = struct
  type t = key

  let compare = compare_key
end

module Key_set = Set.Make (Key_ord)
