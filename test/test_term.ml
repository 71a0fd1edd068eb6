(* Differential tests for the hash-consed term core: the DAG smart
   constructors and their memoized queries ([vars], [size], [pp]), and
   the fuzz library's memoized DAG evaluation ([Fuzzer.Term_eval]),
   must agree with plain reference-tree recursion, and the
   normalization rules (constant folding, commutative operand order,
   double-negation / ite collapse) must behave as documented. *)

module V = Slim.Value
module Ir = Slim.Ir
module T = Solver.Term

let check = Alcotest.check

(* --- reference tree ---------------------------------------------------- *)

(* A plain tree mirror of the term language with naive recursive
   implementations of every query the DAG side memoizes. *)
module R = struct
  type t =
    | Cst of V.t
    | Var of string
    | Unop of Ir.unop * t
    | Binop of Ir.binop * t * t
    | Cmp of Ir.cmpop * t * t
    | And of t * t
    | Or of t * t
    | Not of t
    | Ite of t * t * t

  let eval_unop (op : Ir.unop) v =
    match op with
    | Ir.Neg -> V.neg v
    | Ir.Not -> V.Bool (not (V.to_bool v))
    | Ir.Abs_op -> V.abs_v v
    | Ir.To_real -> V.Real (V.to_real v)
    | Ir.To_int -> V.Int (V.to_int v)
    | Ir.Floor -> V.floor_v v
    | Ir.Ceil -> V.ceil_v v

  let eval_binop (op : Ir.binop) a b =
    match op with
    | Ir.Add -> V.add a b
    | Ir.Sub -> V.sub a b
    | Ir.Mul -> V.mul a b
    | Ir.Div -> V.div a b
    | Ir.Mod -> V.modulo a b
    | Ir.Min -> V.min_v a b
    | Ir.Max -> V.max_v a b

  let eval_cmp (op : Ir.cmpop) a b =
    let c () = V.compare_num a b in
    match op with
    | Ir.Eq -> V.equal a b
    | Ir.Ne -> not (V.equal a b)
    | Ir.Lt -> c () < 0
    | Ir.Le -> c () <= 0
    | Ir.Gt -> c () > 0
    | Ir.Ge -> c () >= 0

  let rec eval env = function
    | Cst v -> v
    | Var x -> env x
    | Unop (op, e) -> eval_unop op (eval env e)
    | Binop (op, a, b) -> eval_binop op (eval env a) (eval env b)
    | Cmp (op, a, b) -> V.Bool (eval_cmp op (eval env a) (eval env b))
    | And (a, b) -> V.Bool (V.to_bool (eval env a) && V.to_bool (eval env b))
    | Or (a, b) -> V.Bool (V.to_bool (eval env a) || V.to_bool (eval env b))
    | Not e -> V.Bool (not (V.to_bool (eval env e)))
    | Ite (c, a, b) ->
      if V.to_bool (eval env c) then eval env a else eval env b

  let rec vars acc = function
    | Cst _ -> acc
    | Var x -> x :: acc
    | Unop (_, e) | Not e -> vars acc e
    | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      vars (vars acc a) b
    | Ite (c, a, b) -> vars (vars (vars acc c) a) b

  let vars t = List.sort_uniq String.compare (vars [] t)

  let rec size = function
    | Cst _ | Var _ -> 1
    | Unop (_, e) | Not e -> 1 + size e
    | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      1 + size a + size b
    | Ite (c, a, b) -> 1 + size c + size a + size b

  let rec pp ppf = function
    | Cst v -> V.pp ppf v
    | Var x -> Fmt.string ppf x
    | Unop (op, e) -> Fmt.pf ppf "%a(%a)" Ir.pp_unop op pp e
    | Binop (op, a, b) -> Fmt.pf ppf "(%a %a %a)" pp a Ir.pp_binop op pp b
    | Cmp (op, a, b) -> Fmt.pf ppf "(%a %a %a)" pp a Ir.pp_cmpop op pp b
    | And (a, b) -> Fmt.pf ppf "(%a && %a)" pp a pp b
    | Or (a, b) -> Fmt.pf ppf "(%a || %a)" pp a pp b
    | Not e -> Fmt.pf ppf "!(%a)" pp e
    | Ite (c, a, b) -> Fmt.pf ppf "(%a ? %a : %a)" pp c pp a pp b
end

(* Expand the DAG back into a tree; exponential for heavily shared
   terms, so only used on generator-sized inputs. *)
let rec reify (t : T.t) : R.t =
  match T.view t with
  | T.Cst v -> R.Cst v
  | T.Tvar x -> R.Var x
  | T.Tunop (op, e) -> R.Unop (op, reify e)
  | T.Tbinop (op, a, b) -> R.Binop (op, reify a, reify b)
  | T.Tcmp (op, a, b) -> R.Cmp (op, reify a, reify b)
  | T.Tand (a, b) -> R.And (reify a, reify b)
  | T.Tor (a, b) -> R.Or (reify a, reify b)
  | T.Tnot e -> R.Not (reify e)
  | T.Tite (c, a, b) -> R.Ite (reify c, reify a, reify b)

(* --- generator --------------------------------------------------------- *)

(* Well-typed terms only (int arithmetic under boolean structure), so
   evaluation is total and the commutative operand swap cannot change
   which exceptions surface. *)
let gen_term rng depth =
  let open QCheck.Gen in
  let int_leaf =
    oneof
      [
        map T.cint (int_range (-9) 9);
        oneofl [ T.var "x"; T.var "y"; T.var "z" ];
      ]
  in
  let rec int_expr depth st =
    if depth = 0 then int_leaf st
    else
      let sub = int_expr (depth - 1) in
      (oneof
         [
           map2 (T.binop Ir.Add) sub sub;
           map2 (T.binop Ir.Sub) sub sub;
           map2 (T.binop Ir.Mul) sub sub;
           map2 (T.binop Ir.Min) sub sub;
           map2 (T.binop Ir.Max) sub sub;
           map (T.unop Ir.Neg) sub;
           map (T.unop Ir.Abs_op) sub;
           (fun st ->
             let c = atom (depth - 1) st in
             T.ite c (sub st) (sub st));
           int_leaf;
         ])
        st
  and atom depth st =
    let a = int_expr depth st in
    let b = int_expr depth st in
    let op = oneofl [ Ir.Eq; Ir.Ne; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge ] st in
    T.cmp op a b
  in
  let rec bool_expr depth st =
    if depth = 0 then atom 1 st
    else
      let sub = bool_expr (depth - 1) in
      (oneof
         [
           map2 T.and_ sub sub;
           map2 T.or_ sub sub;
           map T.not_ sub;
           atom depth;
         ])
        st
  in
  bool_expr depth rng

let env_of (x, y, z) = function
  | "x" -> V.Int x
  | "y" -> V.Int y
  | "z" -> V.Int z
  | _ -> raise Not_found

let envs =
  [ (0, 0, 0); (1, -2, 3); (-4, 4, 0); (7, 7, 7); (-9, 5, -1); (2, -8, 6) ]

(* --- differential property --------------------------------------------- *)

let prop_differential =
  QCheck.Test.make ~name:"hashcons terms agree with reference trees"
    ~count:300
    QCheck.(make (fun rng -> gen_term rng 3))
    (fun t ->
      let r = reify t in
      (* eval: memoized DAG evaluation vs naive recursion *)
      List.iter
        (fun point ->
          let env = env_of point in
          if not (V.equal (Fuzzer.Term_eval.eval env t) (R.eval env r)) then
            QCheck.Test.fail_reportf "eval mismatch on %a" T.pp t)
        envs;
      (* vars: DAG traversal vs tree collection *)
      if T.vars t <> R.vars r then
        QCheck.Test.fail_reportf "vars mismatch on %a" T.pp t;
      (* size: stored saturating field vs tree count *)
      if T.size t <> R.size r then
        QCheck.Test.fail_reportf "size mismatch on %a" T.pp t;
      if T.size_capped 7 t <> min 7 (R.size r) then
        QCheck.Test.fail_reportf "size_capped mismatch on %a" T.pp t;
      (* pp: identical rendering *)
      if Fmt.str "%a" T.pp t <> Fmt.str "%a" R.pp r then
        QCheck.Test.fail_reportf "pp mismatch on %a" T.pp t;
      true)

(* Construction is deterministic: rebuilding the same structure yields
   the physically-same node, and hash/compare agree. *)
let prop_reconstruction_physical =
  QCheck.Test.make ~name:"identical constructions are physically equal"
    ~count:300
    QCheck.(
      make (fun rng ->
          let st = Random.State.copy rng in
          (gen_term rng 3, gen_term st 3)))
    (fun (a, b) ->
      (* same RNG stream -> same construction -> same node *)
      T.equal a b && T.id a = T.id b && T.hash a = T.hash b
      && T.compare a b = 0
      && T.compare_structural a b = 0)

(* --- regressions ------------------------------------------------------- *)

let test_commutative_equal () =
  let x = T.var "x" and y = T.var "y" in
  let pairs =
    [
      (T.binop Ir.Add x y, T.binop Ir.Add y x);
      (T.binop Ir.Mul x y, T.binop Ir.Mul y x);
      (T.and_ x y, T.and_ y x);
      (T.or_ x y, T.or_ y x);
      (T.cmp Ir.Eq x y, T.cmp Ir.Eq y x);
      (T.cmp Ir.Ne x y, T.cmp Ir.Ne y x);
    ]
  in
  List.iter
    (fun (a, b) ->
      check Alcotest.bool "commuted operands give the same node" true
        (T.equal a b))
    pairs;
  (* non-commutative operators must keep their operand order *)
  check Alcotest.bool "sub does not commute" false
    (T.equal (T.binop Ir.Sub x y) (T.binop Ir.Sub y x));
  check Alcotest.bool "lt does not commute" false
    (T.equal (T.cmp Ir.Lt x y) (T.cmp Ir.Lt y x))

let test_physical_sharing () =
  let mk () = T.and_ (T.cmp Ir.Le (T.var "a") (T.cint 4)) (T.var "p") in
  check Alcotest.bool "same construction, same node" true
    (T.equal (mk ()) (mk ()));
  check Alcotest.bool "physically equal" true (mk () == mk ())

let test_folds () =
  check Alcotest.bool "constant folding" true
    (T.is_const (T.binop Ir.Add (T.cint 2) (T.cint 3)) = Some (V.Int 5));
  let x = T.var "x" in
  check Alcotest.bool "double negation cancels" true
    (T.equal (T.not_ (T.not_ x)) x);
  let c = T.cmp Ir.Lt x (T.cint 0) in
  check Alcotest.bool "ite with equal branches folds" true
    (T.equal (T.ite c x x) x);
  check Alcotest.bool "ite on true picks then" true
    (T.equal (T.ite (T.cbool true) x (T.cint 1)) x);
  check Alcotest.bool "and true is identity" true
    (T.equal (T.and_ (T.cbool true) c) c);
  check Alcotest.bool "or false is identity" true
    (T.equal (T.or_ c (T.cbool false)) c)

let test_size_saturates () =
  (* t_{n+1} = t_n + t_n: tree size ~2^n, DAG size ~n.  The stored
     size must saturate instead of overflowing, and the capped form
     must clamp exactly. *)
  let t = ref (T.binop Ir.Add (T.var "x") (T.cint 1)) in
  for _ = 1 to 60 do
    t := T.binop Ir.Add !t !t
  done;
  check Alcotest.bool "size saturated" true (T.size !t >= 1 lsl 30);
  check Alcotest.int "size_capped clamps" 60_000 (T.size_capped 60_000 !t);
  check (Alcotest.list Alcotest.string) "vars on huge shared term"
    [ "x" ] (T.vars !t)

let test_memoized_eval_on_shared_dag () =
  (* push tree size past the eval-memo threshold (256) while keeping
     the reify-able tree moderate: differential check on the memo path *)
  let t =
    ref
      (T.cmp Ir.Le
         (T.binop Ir.Add (T.var "x") (T.var "y"))
         (T.binop Ir.Mul (T.var "z") (T.cint 3)))
  in
  for _ = 1 to 6 do
    t := T.and_ !t (T.or_ !t (T.not_ !t))
  done;
  check Alcotest.bool "over memo threshold" true (T.size !t > 256);
  let r = reify !t in
  List.iter
    (fun point ->
      let env = env_of point in
      check Alcotest.bool "memoized eval = tree eval" true
        (V.equal (Fuzzer.Term_eval.eval env !t) (R.eval env r)))
    envs

let test_vars_sorted_dedup () =
  let t =
    T.and_
      (T.cmp Ir.Lt (T.var "b") (T.var "a"))
      (T.cmp Ir.Gt (T.binop Ir.Add (T.var "a") (T.var "c")) (T.var "b"))
  in
  check (Alcotest.list Alcotest.string) "sorted, no duplicates"
    [ "a"; "b"; "c" ] (T.vars t)

(* --- the front cache ------------------------------------------------------ *)

let minor_words_of f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* Rebuilding a term that is in its cache slot allocates nothing, for
   every node constructor.  Telemetry is off (a counter bump is then a
   flag test) and the [Cst] payload is built beforehand. *)
let test_hit_allocates_nothing () =
  Telemetry.disable ();
  let x = T.var "hx" and y = T.var "hy" in
  let p = T.cmp Ir.Lt x y and q = T.cmp Ir.Ge x y in
  let seven = V.Int 7 and name = "hx" in
  let builds =
    [
      ("cst", fun () -> T.cst seven);
      ("var", fun () -> T.var name);
      ("unop", fun () -> T.unop Ir.Neg x);
      ("binop", fun () -> T.binop Ir.Add y x);
      ("cmp", fun () -> T.cmp Ir.Eq y x);
      ("and_", fun () -> T.and_ q p);
      ("or_", fun () -> T.or_ q p);
      ("not_", fun () -> T.not_ p);
      ("ite", fun () -> T.ite p x y);
    ]
  in
  let baseline = minor_words_of (fun () -> x) in
  List.iter
    (fun (ctor, build) ->
      let t = build () in
      let words = minor_words_of build -. baseline in
      check (Alcotest.float 0.) (ctor ^ ": a hit allocates nothing") 0. words;
      check Alcotest.bool (ctor ^ ": same node") true (build () == t))
    builds

(* More distinct terms than cache slots, built interleaved so that
   slots collide and evict each other, then rebuilt in another order:
   every rebuild is the node first built, and commutative operands sit
   in the canonical order (structural hash, then [compare_structural]). *)
let gen_thrash_specs =
  QCheck.Gen.(
    list_size (int_range 300 600)
      (quad (int_bound 5) (int_bound 30) (int_bound 30) (int_range (-50) 50)))

let build_thrash_term (kind, i, j, k) =
  let a = T.var (Printf.sprintf "v%d" i) in
  let b = T.binop Ir.Sub (T.var (Printf.sprintf "v%d" j)) (T.cint k) in
  match kind with
  | 0 -> T.binop Ir.Add a b
  | 1 -> T.binop Ir.Mul b a
  | 2 -> T.cmp Ir.Eq a b
  | 3 -> T.cmp Ir.Ne b a
  | 4 -> T.and_ (T.cmp Ir.Lt a b) (T.cmp Ir.Le b (T.cint k))
  | _ -> T.or_ (T.cmp Ir.Gt b a) (T.not_ (T.cmp Ir.Ge a (T.cint k)))

let canonical_pair t =
  let in_order a b =
    T.hash a < T.hash b
    || (T.hash a = T.hash b && T.compare_structural a b <= 0)
  in
  match T.view t with
  | T.Tbinop ((Ir.Add | Ir.Mul), a, b)
  | T.Tcmp ((Ir.Eq | Ir.Ne), a, b)
  | T.Tand (a, b)
  | T.Tor (a, b) ->
    in_order a b
  | _ -> true

let prop_cache_thrash =
  QCheck.Test.make ~name:"uniqueness holds while cache slots collide"
    ~count:50 (QCheck.make gen_thrash_specs) (fun specs ->
      let built = List.map (fun s -> (s, build_thrash_term s)) specs in
      let distinct =
        List.sort_uniq Int.compare (List.map (fun (_, t) -> T.id t) built)
      in
      if List.length distinct <= 256 then
        QCheck.Test.fail_reportf "only %d distinct terms"
          (List.length distinct);
      List.iter
        (fun (s, t) ->
          let t' = build_thrash_term s in
          if not (t' == t && T.id t' = T.id t) then
            QCheck.Test.fail_reportf "rebuild of %a is a new node" T.pp t;
          if not (canonical_pair t') then
            QCheck.Test.fail_reportf "operands of %a out of order" T.pp t)
        (List.rev built);
      true)

let () =
  Alcotest.run "term"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_differential; prop_reconstruction_physical ] );
      ( "normalization",
        [
          Alcotest.test_case "commutative operands" `Quick
            test_commutative_equal;
          Alcotest.test_case "physical sharing" `Quick test_physical_sharing;
          Alcotest.test_case "folds" `Quick test_folds;
        ] );
      ( "queries",
        [
          Alcotest.test_case "size saturates" `Quick test_size_saturates;
          Alcotest.test_case "memoized eval" `Quick
            test_memoized_eval_on_shared_dag;
          Alcotest.test_case "vars" `Quick test_vars_sorted_dedup;
        ] );
      ( "front cache",
        [
          Alcotest.test_case "a hit allocates nothing" `Quick
            test_hit_allocates_nothing;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 17 |])
            prop_cache_thrash;
        ] );
    ]
