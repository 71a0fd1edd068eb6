module Value = Slim.Value
module Ir = Slim.Ir

(* Hash-consed DAG terms.  Every [t] is allocated through the node
   constructors below, which consult a per-domain weak hashcons table:
   structurally equal terms (after normalization) are the *same* node,
   so [equal] is physical equality, [hash]/[size] are stored fields,
   and every consumer that memoizes per-term can key on [id].

   Domain safety: the table is domain-local ([Domain.DLS]) rather than
   a single mutex-guarded global, and so is {!Sym_value}'s memo of
   lowered programs, which holds terms built from it.  Term construction
   is the hottest allocation site in the symbolic executor, and no term
   ever crosses a domain boundary (each engine run / solver call / fuzz
   case is confined to one worker domain; results carry [Value.t]s,
   never terms), so per-domain tables give the same uniqueness
   guarantee without hot-path locking.
   Consequence: ids are unique *per domain*; [equal]/[compare]/[id] are
   only meaningful between terms built on the same domain — which is
   every comparison the codebase performs.

   Normalization at construction:
   - constant folding, exactly as the tree constructors always did;
   - commutative-operand ordering for [+], [*], [&&], [||], [=], [<>]:
     operands are ordered by the deterministic structural hash, ties
     broken by a full structural compare.  Crucially the order does
     *not* depend on hashcons ids (which vary with allocation history),
     so the same source guards normalize to the same shape in every
     run, domain and process — the determinism gate for pooled runs.

   The weak table lets the GC reclaim dead terms while uniqueness holds
   for all live ones; ids are never reused either way (the counter only
   grows), so an id-keyed cache can at worst miss, never alias.

   Hits allocate nothing.  Nearly every construction is a hit (state
   constants make a one-step solve rebuild the same guard terms), and
   [Weak.Make.merge] can only find a node by building a candidate
   first.  So a 256-slot direct-mapped array of strong references sits
   in front of the weak table (probe-before-allocate, as in Filliatre &
   Conchon, "Type-Safe Modular Hash-Consing", 2006): each constructor
   hashes its components, and a slot holding an equal node is returned
   as is.  Every cached term is live, hence still in the weak table, so
   the cache returns exactly the node [merge] would have: uniqueness
   and ids are unchanged.  The price is up to 256 terms, with their
   subterms, kept alive past their last use. *)

type t = {
  id : int;  (* unique per domain, dense-ish, never reused *)
  node : node;
  hkey : int;  (* deterministic structural hash *)
  tsize : int;  (* tree size, saturating at [size_sat_cap] *)
}

and node =
  | Cst of Value.t
  | Tvar of string
  | Tunop of Ir.unop * t
  | Tbinop of Ir.binop * t * t
  | Tcmp of Ir.cmpop * t * t
  | Tand of t * t
  | Tor of t * t
  | Tnot of t
  | Tite of t * t * t

let view t = t.node
let id t = t.id
let hash t = t.hkey
let equal a b = a == b
let compare a b = Int.compare a.id b.id

(* --- structural hash and size ----------------------------------------- *)

(* [Hashtbl.hash] is the non-seeded polymorphic hash: deterministic
   across runs and processes, which the commutative ordering relies on.
   Its bounded traversal of big [Value.Vec] constants only costs extra
   collisions — the weak-set lookup compares structurally. *)
let mix h d = ((h * 0x01000193) lxor d) land max_int

(* Tree sizes of shared DAGs grow exponentially; saturate far above
   every cap used by callers (all <= 60_000) so [size_capped cap t =
   min cap (tree size)] exactly as the old streaming counter computed. *)
let size_sat_cap = 1 lsl 30

let sat a b =
  let s = a + b in
  if s >= size_sat_cap then size_sat_cap else s

(* --- the hashcons table ------------------------------------------------ *)

module H = struct
  type nonrec t = t

  let hash t = t.hkey

  (* Shallow structural equality: children are unique already, so
     physical comparison suffices below the top node.  Constants use
     [compare] so [nan] payloads stay well-behaved. *)
  let equal a b =
    match a.node, b.node with
    | Cst u, Cst v -> Stdlib.compare u v = 0
    | Tvar x, Tvar y -> String.equal x y
    | Tunop (o1, e1), Tunop (o2, e2) -> o1 = o2 && e1 == e2
    | Tbinop (o1, a1, b1), Tbinop (o2, a2, b2) ->
      o1 = o2 && a1 == a2 && b1 == b2
    | Tcmp (o1, a1, b1), Tcmp (o2, a2, b2) -> o1 = o2 && a1 == a2 && b1 == b2
    | Tand (a1, b1), Tand (a2, b2) | Tor (a1, b1), Tor (a2, b2) ->
      a1 == a2 && b1 == b2
    | Tnot e1, Tnot e2 -> e1 == e2
    | Tite (c1, a1, b1), Tite (c2, a2, b2) ->
      c1 == c2 && a1 == a2 && b1 == b2
    | _, _ -> false
end

module W = Weak.Make (H)

(* The front cache (see the header).  A slot is [hkey land (cache_slots
   - 1)]; the count must be a power of two.  256 slots take nearly every
   hit of a one-step solve; 1024 and 16 k slots hit barely more and grow
   the live heap about 4x and 12x as much. *)
let cache_slots = 256

(* Never matches: real hashes are non-negative. *)
let empty_slot = { id = -1; node = Tvar ""; hkey = -1; tsize = 0 }

type hstate = { tbl : W.t; mutable next_id : int; cache : t array }

let hstate_key =
  Domain.DLS.new_key (fun () ->
      {
        tbl = W.create 4096;
        next_id = 0;
        cache = Array.make cache_slots empty_slot;
      })

(* Hit/node counts depend on GC timing (weak table) and on which runs
   landed on this domain, so they are nondeterministic across worker
   counts: excluded from the deterministic snapshot.  Cache hits are a
   subset of hits. *)
let tel_nodes = Telemetry.Counter.make ~nondet:true "term.hashcons_nodes"
let tel_hits = Telemetry.Counter.make ~nondet:true "term.hashcons_hits"

let tel_cache_hits =
  Telemetry.Counter.make ~nondet:true "term.hashcons_cache_hits"

let cache_hit t =
  Telemetry.Counter.incr tel_hits;
  Telemetry.Counter.incr tel_cache_hits;
  t

(* The miss path: build the node, intern it, and cache what the weak
   table returned. *)
let intern hs node hkey tsize =
  let cand = { id = hs.next_id; node; hkey; tsize } in
  let r = W.merge hs.tbl cand in
  if r == cand then begin
    hs.next_id <- hs.next_id + 1;
    Telemetry.Counter.incr tel_nodes
  end
  else Telemetry.Counter.incr tel_hits;
  hs.cache.(hkey land (cache_slots - 1)) <- r;
  r

let slot hs hkey = hs.cache.(hkey land (cache_slots - 1))

(* --- canonical commutative order --------------------------------------- *)

let tag_rank = function
  | Cst _ -> 0
  | Tvar _ -> 1
  | Tunop _ -> 2
  | Tbinop _ -> 3
  | Tcmp _ -> 4
  | Tand _ -> 5
  | Tor _ -> 6
  | Tnot _ -> 7
  | Tite _ -> 8

(* Deterministic total order on term structure (never on ids). *)
let rec compare_structural a b =
  if a == b then 0
  else
    match a.node, b.node with
    | Cst u, Cst v -> Stdlib.compare u v
    | Tvar x, Tvar y -> String.compare x y
    | Tunop (o1, e1), Tunop (o2, e2) ->
      let c = Stdlib.compare o1 o2 in
      if c <> 0 then c else compare_structural e1 e2
    | Tbinop (o1, a1, b1), Tbinop (o2, a2, b2) ->
      let c = Stdlib.compare o1 o2 in
      if c <> 0 then c else compare_structural2 a1 b1 a2 b2
    | Tcmp (o1, a1, b1), Tcmp (o2, a2, b2) ->
      let c = Stdlib.compare o1 o2 in
      if c <> 0 then c else compare_structural2 a1 b1 a2 b2
    | Tand (a1, b1), Tand (a2, b2) | Tor (a1, b1), Tor (a2, b2) ->
      compare_structural2 a1 b1 a2 b2
    | Tnot e1, Tnot e2 -> compare_structural e1 e2
    | Tite (c1, a1, b1), Tite (c2, a2, b2) ->
      let c = compare_structural c1 c2 in
      if c <> 0 then c else compare_structural2 a1 b1 a2 b2
    | n1, n2 -> Int.compare (tag_rank n1) (tag_rank n2)

and compare_structural2 a1 b1 a2 b2 =
  let c = compare_structural a1 a2 in
  if c <> 0 then c else compare_structural b1 b2

(* The canonical commutative order: [a] goes first iff [ordered a b].
   A test rather than a swapped pair, so the constructors below
   allocate nothing on a hit. *)
let ordered a b =
  a.hkey < b.hkey || (a.hkey = b.hkey && compare_structural a b <= 0)

(* --- node constructors ------------------------------------------------- *)

(* One per tag: hash the components with the same [mix] formulas the
   weak table keys on, probe the slot, and intern on a miss.  The
   [hkey] test comes first: it is the cheap reject, and it keeps
   [empty_slot] from ever matching. *)

let cst v =
  let hs = Domain.DLS.get hstate_key in
  let h = mix 0x11 (Hashtbl.hash v) in
  match slot hs h with
  | { node = Cst u; hkey; _ } as t when hkey = h && Stdlib.compare u v = 0 ->
    cache_hit t
  | _ -> intern hs (Cst v) h 1

let var x =
  let hs = Domain.DLS.get hstate_key in
  let h = mix 0x22 (Hashtbl.hash x) in
  match slot hs h with
  | { node = Tvar y; hkey; _ } as t when hkey = h && String.equal x y ->
    cache_hit t
  | _ -> intern hs (Tvar x) h 1

let mk_unop op e =
  let hs = Domain.DLS.get hstate_key in
  let h = mix (mix 0x33 (Hashtbl.hash op)) e.hkey in
  match slot hs h with
  | { node = Tunop (o, e'); hkey; _ } as t when hkey = h && o = op && e' == e
    ->
    cache_hit t
  | _ -> intern hs (Tunop (op, e)) h (sat 1 e.tsize)

let mk_binop op a b =
  let hs = Domain.DLS.get hstate_key in
  let h = mix (mix (mix 0x44 (Hashtbl.hash op)) a.hkey) b.hkey in
  match slot hs h with
  | { node = Tbinop (o, a', b'); hkey; _ } as t
    when hkey = h && o = op && a' == a && b' == b ->
    cache_hit t
  | _ -> intern hs (Tbinop (op, a, b)) h (sat 1 (sat a.tsize b.tsize))

let mk_cmp op a b =
  let hs = Domain.DLS.get hstate_key in
  let h = mix (mix (mix 0x55 (Hashtbl.hash op)) a.hkey) b.hkey in
  match slot hs h with
  | { node = Tcmp (o, a', b'); hkey; _ } as t
    when hkey = h && o = op && a' == a && b' == b ->
    cache_hit t
  | _ -> intern hs (Tcmp (op, a, b)) h (sat 1 (sat a.tsize b.tsize))

let mk_and a b =
  let hs = Domain.DLS.get hstate_key in
  let h = mix (mix 0x66 a.hkey) b.hkey in
  match slot hs h with
  | { node = Tand (a', b'); hkey; _ } as t when hkey = h && a' == a && b' == b
    ->
    cache_hit t
  | _ -> intern hs (Tand (a, b)) h (sat 1 (sat a.tsize b.tsize))

let mk_or a b =
  let hs = Domain.DLS.get hstate_key in
  let h = mix (mix 0x77 a.hkey) b.hkey in
  match slot hs h with
  | { node = Tor (a', b'); hkey; _ } as t when hkey = h && a' == a && b' == b
    ->
    cache_hit t
  | _ -> intern hs (Tor (a, b)) h (sat 1 (sat a.tsize b.tsize))

let mk_not e =
  let hs = Domain.DLS.get hstate_key in
  let h = mix 0x88 e.hkey in
  match slot hs h with
  | { node = Tnot e'; hkey; _ } as t when hkey = h && e' == e -> cache_hit t
  | _ -> intern hs (Tnot e) h (sat 1 e.tsize)

let mk_ite c a b =
  let hs = Domain.DLS.get hstate_key in
  let h = mix (mix (mix 0x99 c.hkey) a.hkey) b.hkey in
  match slot hs h with
  | { node = Tite (c', a', b'); hkey; _ } as t
    when hkey = h && c' == c && a' == a && b' == b ->
    cache_hit t
  | _ ->
    intern hs (Tite (c, a, b)) h (sat 1 (sat c.tsize (sat a.tsize b.tsize)))

(* --- smart constructors ------------------------------------------------ *)

let cbool b = cst (Value.Bool b)
let cint i = cst (Value.Int i)
let creal r = cst (Value.Real r)

let is_const t = match t.node with Cst v -> Some v | _ -> None

let eval_unop (op : Ir.unop) v =
  match op with
  | Ir.Neg -> Value.neg v
  | Ir.Not -> Value.bool (not (Value.to_bool v))
  | Ir.Abs_op -> Value.abs_v v
  | Ir.To_real -> Value.Real (Value.to_real v)
  | Ir.To_int -> Value.Int (Value.to_int v)
  | Ir.Floor -> Value.floor_v v
  | Ir.Ceil -> Value.ceil_v v

let eval_binop (op : Ir.binop) a b =
  match op with
  | Ir.Add -> Value.add a b
  | Ir.Sub -> Value.sub a b
  | Ir.Mul -> Value.mul a b
  | Ir.Div -> Value.div a b
  | Ir.Mod -> Value.modulo a b
  | Ir.Min -> Value.min_v a b
  | Ir.Max -> Value.max_v a b

let eval_cmp (op : Ir.cmpop) a b =
  match op with
  | Ir.Eq -> Value.equal a b
  | Ir.Ne -> not (Value.equal a b)
  | Ir.Lt -> Value.compare_num a b < 0
  | Ir.Le -> Value.compare_num a b <= 0
  | Ir.Gt -> Value.compare_num a b > 0
  | Ir.Ge -> Value.compare_num a b >= 0

(* [+] and [*] commute over every value combination the evaluator
   accepts, and the HC4 projections for them are symmetric, so the
   canonical operand order is semantically invisible. *)
let canon_binop op a b =
  match op with
  | (Ir.Add | Ir.Mul) when not (ordered a b) -> mk_binop op b a
  | Ir.Add | Ir.Mul | Ir.Sub | Ir.Div | Ir.Mod | Ir.Min | Ir.Max ->
    mk_binop op a b

let canon_cmp op a b =
  match op with
  | (Ir.Eq | Ir.Ne) when not (ordered a b) -> mk_cmp op b a
  | Ir.Eq | Ir.Ne | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge -> mk_cmp op a b

let unop op e =
  match e.node with
  | Cst v -> (try cst (eval_unop op v) with Value.Type_error _ -> mk_unop op e)
  | _ -> mk_unop op e

let binop op a b =
  match a.node, b.node with
  | Cst va, Cst vb ->
    (try cst (eval_binop op va vb) with Value.Type_error _ -> canon_binop op a b)
  | _ -> canon_binop op a b

let cmp op a b =
  match a.node, b.node with
  | Cst va, Cst vb ->
    (try cst (Value.bool (eval_cmp op va vb))
     with Value.Type_error _ -> canon_cmp op a b)
  | _ -> canon_cmp op a b

let and_ a b =
  match a.node, b.node with
  | Cst (Value.Bool true), _ -> b
  | _, Cst (Value.Bool true) -> a
  | Cst (Value.Bool false), _ | _, Cst (Value.Bool false) -> cbool false
  | _ -> if ordered a b then mk_and a b else mk_and b a

let or_ a b =
  match a.node, b.node with
  | Cst (Value.Bool false), _ -> b
  | _, Cst (Value.Bool false) -> a
  | Cst (Value.Bool true), _ | _, Cst (Value.Bool true) -> cbool true
  | _ -> if ordered a b then mk_or a b else mk_or b a

let not_ e =
  match e.node with
  | Cst (Value.Bool b) -> cbool (not b)
  | Tnot inner -> inner
  | _ -> mk_not e

let ite c t e =
  match c.node with
  | Cst (Value.Bool true) -> t
  | Cst (Value.Bool false) -> e
  | _ -> if t == e then t else mk_ite c t e

let conj = function
  | [] -> cbool true
  | t :: ts -> List.fold_left and_ t ts

(* --- queries ------------------------------------------------------------ *)

let vars t =
  let module S = Set.Make (String) in
  let seen = Hashtbl.create 64 in
  let rec go acc t =
    if Hashtbl.mem seen t.id then acc
    else begin
      Hashtbl.add seen t.id ();
      match t.node with
      | Cst _ -> acc
      | Tvar x -> S.add x acc
      | Tunop (_, e) | Tnot e -> go acc e
      | Tbinop (_, a, b) | Tcmp (_, a, b) | Tand (a, b) | Tor (a, b) ->
        go (go acc a) b
      | Tite (c, a, b) -> go (go (go acc c) a) b
    end
  in
  S.elements (go S.empty t)

let size t = t.tsize
let size_capped cap t = if t.tsize < cap then t.tsize else cap

let rec pp ppf t =
  match t.node with
  | Cst v -> Value.pp ppf v
  | Tvar x -> Fmt.string ppf x
  | Tunop (op, e) -> Fmt.pf ppf "%a(%a)" Ir.pp_unop op pp e
  | Tbinop (op, a, b) -> Fmt.pf ppf "(%a %a %a)" pp a Ir.pp_binop op pp b
  | Tcmp (op, a, b) -> Fmt.pf ppf "(%a %a %a)" pp a Ir.pp_cmpop op pp b
  | Tand (a, b) -> Fmt.pf ppf "(%a && %a)" pp a pp b
  | Tor (a, b) -> Fmt.pf ppf "(%a || %a)" pp a pp b
  | Tnot e -> Fmt.pf ppf "!(%a)" pp e
  | Tite (c, a, b) -> Fmt.pf ppf "(%a ? %a : %a)" pp c pp a pp b
