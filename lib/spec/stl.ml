(* STL-style requirement AST with quantitative (robustness) semantics.
   The numeric evaluation lives in {!Monitor}; this module is the pure
   syntax: structure, validation against a model's output interface,
   and a canonical one-line text for diagnostics. *)

type sig_expr =
  | Sig of string
  | Const of float
  | Add of sig_expr * sig_expr
  | Sub of sig_expr * sig_expr
  | Mul of sig_expr * sig_expr
  | Neg of sig_expr
  | Abs of sig_expr
  | Min of sig_expr * sig_expr
  | Max of sig_expr * sig_expr

type cmp = Le | Lt | Ge | Gt | Eq

type formula =
  | Atom of cmp * sig_expr * sig_expr
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula
  | Always of int * int * formula
  | Eventually of int * int * formula
  | Until of int * int * formula * formula

(* --- structure ---------------------------------------------------------- *)

let rec horizon = function
  | Atom _ -> 0
  | Not f -> horizon f
  | And (f, g) | Or (f, g) | Implies (f, g) -> max (horizon f) (horizon g)
  | Always (_, b, f) | Eventually (_, b, f) -> b + horizon f
  | Until (_, b, f, g) -> b + max (horizon f) (horizon g)

let rec sig_signals acc = function
  | Sig n -> n :: acc
  | Const _ -> acc
  | Neg e | Abs e -> sig_signals acc e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Min (a, b) | Max (a, b) ->
    sig_signals (sig_signals acc a) b

let rec collect_signals acc = function
  | Atom (_, l, r) -> sig_signals (sig_signals acc l) r
  | Not f -> collect_signals acc f
  | And (f, g) | Or (f, g) | Implies (f, g) | Until (_, _, f, g) ->
    collect_signals (collect_signals acc f) g
  | Always (_, _, f) | Eventually (_, _, f) -> collect_signals acc f

let signals f = List.sort_uniq compare (collect_signals [] f)

let scalar_ty = function
  | Slim.Value.Tbool | Slim.Value.Tint _ | Slim.Value.Treal _ -> true
  | Slim.Value.Tvec _ -> false

let validate ~outputs f =
  let exception Bad of string in
  let check_bounds op a b =
    if not (0 <= a && a <= b) then
      raise (Bad (Printf.sprintf "%s[%d,%d]: malformed bounds (need 0 <= a <= b)" op a b))
  in
  let rec go = function
    | Atom (_, l, r) -> go_sig l; go_sig r
    | Not f -> go f
    | And (f, g) | Or (f, g) | Implies (f, g) -> go f; go g
    | Always (a, b, f) -> check_bounds "always" a b; go f
    | Eventually (a, b, f) -> check_bounds "eventually" a b; go f
    | Until (a, b, f, g) -> check_bounds "until" a b; go f; go g
  and go_sig = function
    | Sig n -> (
      match List.assoc_opt n outputs with
      | None -> raise (Bad (Printf.sprintf "unknown output signal %S" n))
      | Some ty when not (scalar_ty ty) ->
        raise (Bad (Printf.sprintf "output signal %S is a vector (not addressable)" n))
      | Some _ -> ())
    | Const _ -> ()
    | Neg e | Abs e -> go_sig e
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Min (a, b) | Max (a, b) ->
      go_sig a; go_sig b
  in
  match go f with () -> Ok () | exception Bad m -> Error m

(* --- canonical text ------------------------------------------------------ *)

let fstr f = Printf.sprintf "%.17g" f

let rec sig_to_string = function
  | Sig n -> Printf.sprintf "(sig \"%s\")" n
  | Const f -> Printf.sprintf "(c %s)" (fstr f)
  | Add (a, b) -> Printf.sprintf "(+ %s %s)" (sig_to_string a) (sig_to_string b)
  | Sub (a, b) -> Printf.sprintf "(- %s %s)" (sig_to_string a) (sig_to_string b)
  | Mul (a, b) -> Printf.sprintf "(* %s %s)" (sig_to_string a) (sig_to_string b)
  | Neg e -> Printf.sprintf "(neg %s)" (sig_to_string e)
  | Abs e -> Printf.sprintf "(abs %s)" (sig_to_string e)
  | Min (a, b) -> Printf.sprintf "(min %s %s)" (sig_to_string a) (sig_to_string b)
  | Max (a, b) -> Printf.sprintf "(max %s %s)" (sig_to_string a) (sig_to_string b)

let cmp_str = function
  | Le -> "<="
  | Lt -> "<"
  | Ge -> ">="
  | Gt -> ">"
  | Eq -> "="

let rec to_string = function
  | Atom (op, l, r) ->
    Printf.sprintf "(%s %s %s)" (cmp_str op) (sig_to_string l) (sig_to_string r)
  | Not f -> Printf.sprintf "(not %s)" (to_string f)
  | And (f, g) -> Printf.sprintf "(and %s %s)" (to_string f) (to_string g)
  | Or (f, g) -> Printf.sprintf "(or %s %s)" (to_string f) (to_string g)
  | Implies (f, g) -> Printf.sprintf "(implies %s %s)" (to_string f) (to_string g)
  | Always (a, b, f) -> Printf.sprintf "(always %d %d %s)" a b (to_string f)
  | Eventually (a, b, f) -> Printf.sprintf "(eventually %d %d %s)" a b (to_string f)
  | Until (a, b, f, g) ->
    Printf.sprintf "(until %d %d %s %s)" a b (to_string f) (to_string g)
