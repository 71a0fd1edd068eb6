(* HC4-style constraint propagation: forward interval evaluation and
   backward projection over solver terms.  All rules are conservative
   (over-approximating), so propagation never loses solutions; final
   answers are confirmed by concrete evaluation in [Csp].

   Stores.  A store holds one domain per slot in a [Dom.t array]; a
   variable list gets one slot per entry, and a name resolves to its
   last entry ([layout]).  The layout is built once per list and shared
   by every store over it: a CSP call's root store and all its split
   halves, and every prefix box of one symbolic-execution memo binding.
   A [Tvar] finds its slot through the layout's table keyed by term id,
   so a visit hashes no string.  The name-keyed entry points ([get],
   [set_dom], [split_store], [create_store]) resolve the name and go
   through the same slots.

   Terms are hash-consed DAGs, so the same subterm reaches [fwd]/[bwd]
   many times per round through different parents.  Both directions are
   memoized per store, keyed on the term id and stamped with the store's
   generation — a counter bumped on every domain narrowing, i.e. a
   cheap identity for the current box.  A forward memo hit returns
   exactly what recomputation against the unchanged box would; a
   backward entry is recorded only when the call completed without
   narrowing anything, so skipping it on the same box is a no-op by
   construction.  Memoized and unmemoized propagation are therefore
   bit-identical, which [create_store ~memo:false] exposes for tests.

   Memo tables.  Each direction has one open-addressed table: parallel
   arrays indexed by slot, probed linearly from the key's hash, with
   room for twice the keys (the arrays double when half full).  A slot
   holds a term id, a generation and a domain: the backward table keys
   on the requirement too and keeps it there, the forward table keeps
   its result there.  Key equality on the requirement is [compare = 0],
   as [Hashtbl]'s was, so [nan] matches [nan] and [-0.] matches [0.].
   An entry is never removed: a key keeps its slot for the table's
   lifetime, and generation -1 stands for "absent".  The store's
   generation is never negative, so no lookup matches -1, and a free
   slot carries -1 too.  Hits and overwrites therefore allocate
   nothing, and undoing an insertion is a write of -1.  Each table
   also keeps the largest generation ever bound in it ([top]): a
   search split ([split_slot]) shares its parent's tables and starts
   its generation past [top], so no entry of the parent or of the
   sibling subtree can match, exactly as in a copy whose generation
   [set_dom] has moved past every copied stamp.  So a split copies only
   the domain array.

   The symbolic executor checks each fork arm against one propagated
   prefix box and must leave the box as it found it for the next arm.
   [propagate_and_restore] does that without copying: while it runs,
   every write propagation makes to the store is pushed on an undo
   trail (a domain narrowing with its slot and the old domain, a memo
   write with the key, the old generation and the old value), and
   afterwards, normally or by an exception, the trail is replayed
   newest first and [generation] and [changed] are reset.  The store
   then holds exactly the bindings it held before, so the answer, and
   every later propagation on the box (answers, domains, memo hits,
   rounds), is what a copy of the box would have given.

   Kept boxes.  A fresh store propagated once depends only on its
   initial bindings and the term, and a check through
   [propagate_and_restore] changes nothing, so a propagated box may be
   kept and checked against for as long as its caller likes.  The
   symbolic executor keeps one per fork window for a whole engine run
   ([Explore]'s prefix memo) and lets the GC have them when the run
   ends. *)

module Value = Slim.Value
module Ir = Slim.Ir

(* --- memo tables ------------------------------------------------------ *)

type table = {
  mutable keys : int array;  (* term id; -1 marks a free slot *)
  mutable gens : int array;  (* -1: absent *)
  mutable doms : Dom.t array;
      (* the requirement in the backward table, the result forward *)
  mutable used : int;  (* slots holding a key *)
  mutable top : int;  (* the largest generation ever bound, or -1 *)
  by_req : bool;  (* keys differ in their requirement: the backward table *)
}

(* Initial slots.  64 allocated 0.5% more words per stcg-solve pass of
   the benchmark than 16 (seed 1), and the same on fuzz. *)
let table_slots = 16

(* the requirement of every forward key *)
let no_req = Dom.top_bool

let new_table ~by_req slots =
  {
    by_req;
    keys = Array.make slots (-1);
    gens = Array.make slots (-1);
    doms = Array.make slots no_req;
    used = 0;
    top = -1;
  }

let copy_table t =
  {
    keys = Array.copy t.keys;
    gens = Array.copy t.gens;
    doms = Array.copy t.doms;
    used = t.used;
    top = t.top;
    by_req = t.by_req;
  }

(* [compare a b = 0], the key equality [Hashtbl] used. *)
let same_req (a : Dom.t) (b : Dom.t) =
  a == b
  ||
  match a, b with
  | Dom.Dbool x, Dom.Dbool y ->
    x.can_true = y.can_true && x.can_false = y.can_false
  | Dom.Dint x, Dom.Dint y -> x.lo = y.lo && x.hi = y.hi
  | Dom.Dreal x, Dom.Dreal y ->
    Float.compare x.lo y.lo = 0 && Float.compare x.hi y.hi = 0
  | (Dom.Dbool _ | Dom.Dint _ | Dom.Dreal _), _ -> false

(* Forward keys hash as their id: ids are dense, so they spread
   evenly.  [Hashtbl.hash] maps [-0.] with [0.] and every [nan]
   together, so keys equal under [same_req] hash alike. *)
let key_hash t id req =
  if t.by_req then (id * 65599) + Hashtbl.hash req else id

(* The slot holding the key, or the free slot where it would go. *)
let slot t id req =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (key_hash t id req land mask) in
  while
    let k = keys.(!i) in
    k <> -1 && not (k = id && ((not t.by_req) || same_req t.doms.(!i) req))
  do
    i := (!i + 1) land mask
  done;
  !i

let rec grow t =
  let keys = t.keys and gens = t.gens and doms = t.doms in
  let n = 2 * Array.length keys in
  t.keys <- Array.make n (-1);
  t.gens <- Array.make n (-1);
  t.doms <- Array.make n no_req;
  t.used <- 0;
  Array.iteri
    (fun i k ->
      if k <> -1 then
        let req = if t.by_req then doms.(i) else no_req in
        bind t k req gens.(i) doms.(i))
    keys

(* Bind the key to generation [g] and, forward, to the result [v]. *)
and bind t id req g v =
  let i = slot t id req in
  if g > t.top then t.top <- g;
  t.gens.(i) <- g;
  if not t.by_req then t.doms.(i) <- v;
  if t.keys.(i) = -1 then begin
    t.keys.(i) <- id;
    if t.by_req then t.doms.(i) <- req;
    t.used <- t.used + 1;
    if 2 * t.used > Array.length t.keys then grow t
  end

(* --- layouts ----------------------------------------------------------- *)

(* The slots of one variable list: one per entry, a name resolving to
   its last entry as [Hashtbl.replace] in list order does.  [Tvar] terms
   resolve through [var_ids], an open-addressed table keyed by term id
   and filled on first sight, so propagation hashes a name once per
   variable term rather than on every visit.  Term ids are never reused,
   so an entry stays right for the layout's lifetime.  Every store over
   the list shares its layout. *)
type layout = {
  names : string array;  (* slot -> name *)
  slot_of_name : (string, int) Hashtbl.t;
  live : int array;  (* entry -> the slot its name resolves to *)
  mutable var_ids : int array;  (* term id; -1 marks a free cell *)
  mutable var_slots : int array;  (* the id's slot; -1: unbound name *)
  mutable var_used : int;
}

let layout (vars : (string * _) list) =
  let names = Array.of_list (List.map fst vars) in
  let slot_of_name = Hashtbl.create (2 * Array.length names) in
  Array.iteri (fun i x -> Hashtbl.replace slot_of_name x i) names;
  {
    names;
    slot_of_name;
    live = Array.map (Hashtbl.find slot_of_name) names;
    var_ids = Array.make table_slots (-1);
    var_slots = Array.make table_slots (-1);
    var_used = 0;
  }

let unknown_var x = Value.type_error "unknown solver variable %s" x

let slot_of_name l x =
  match Hashtbl.find l.slot_of_name x with
  | i -> i
  | exception Not_found -> unknown_var x

(* The cell holding term id [id], or the free cell where it would go. *)
let var_cell l id =
  let ids = l.var_ids in
  let mask = Array.length ids - 1 in
  let i = ref (id land mask) in
  while ids.(!i) <> -1 && ids.(!i) <> id do
    i := (!i + 1) land mask
  done;
  !i

let rec add_var l id slot =
  let i = var_cell l id in
  l.var_ids.(i) <- id;
  l.var_slots.(i) <- slot;
  l.var_used <- l.var_used + 1;
  if 2 * l.var_used > Array.length l.var_ids then begin
    let ids = l.var_ids and slots = l.var_slots in
    let n = 2 * Array.length ids in
    l.var_ids <- Array.make n (-1);
    l.var_slots <- Array.make n (-1);
    l.var_used <- 0;
    Array.iteri (fun i id -> if id <> -1 then add_var l id slots.(i)) ids
  end

(* The slot of variable term [t] named [x]. *)
let var_slot l (t : Term.t) x =
  let i = var_cell l t.Term.id in
  let slot =
    if l.var_ids.(i) = t.Term.id then l.var_slots.(i)
    else begin
      let slot = try Hashtbl.find l.slot_of_name x with Not_found -> -1 in
      add_var l t.Term.id slot;
      slot
    end
  in
  if slot < 0 then unknown_var x else slot

(* --- stores ------------------------------------------------------------ *)

(* A write to undo: the key and what it was bound to before (generation
   -1 when absent). *)
type undo =
  | Undo_dom of int * Dom.t  (* slot, domain *)
  | Undo_fwd of int * int * Dom.t  (* term id, generation, domain *)
  | Undo_bwd of int * Dom.t * int  (* term id, requirement, generation *)

type store = {
  layout : layout;
  doms : Dom.t array;  (* by slot *)
  mutable changed : bool;
  memo : bool;
  mutable generation : int;  (* bumped on every narrowing *)
  fwd_memo : table;  (* term id -> generation, dom *)
  bwd_memo : table;
      (* (term id, requirement) -> generation at which the call was a no-op *)
  mutable trailing : bool;
      (* inside [propagate_and_restore]; tested before an undo record is
         built, so other propagations allocate nothing for the trail *)
  mutable trail : undo list;  (* newest first *)
}

(* A store over [layout] whose domains are [doms], which it owns. *)
let create ?(memo = true) layout doms =
  {
    layout;
    doms;
    changed = false;
    memo;
    generation = 0;
    fwd_memo = new_table ~by_req:false table_slots;
    bwd_memo = new_table ~by_req:true table_slots;
    trailing = false;
    trail = [];
  }

let create_store ?memo bindings =
  create ?memo (layout bindings) (Array.of_list (List.map snd bindings))

(* Memo entries are only valid for the exact box they were computed
   against, so a copy may keep them — but the copy gets fresh tables:
   the branches diverge, and sharing mutable tables across stores whose
   generations advance independently would let one branch's entries
   shadow the other's.  Callers that change a copy's domains must go
   through [set_dom] so the generation advances past every cached
   stamp. *)
let copy_store store =
  {
    store with
    doms = Array.copy store.doms;
    fwd_memo = copy_table store.fwd_memo;
    bwd_memo = copy_table store.bwd_memo;
    trailing = false;
    trail = [];
  }

(* The store for one half of a search split: [store]'s domains with slot
   [i] set to [d].  A copy followed by [set_dom] would copy the memo
   tables only never to hit them: [set_dom] moves the generation past
   every stamp they hold, and a store's generation only grows.  So the
   half shares [store]'s tables and starts past every stamp any store
   wrote into them, which gives the same hits without the copy.  This
   needs the depth-first discipline of [Csp]: [store] never propagates
   again, and one half's subtree is done before the other half is made,
   so no two live stores write the same tables.  The half copies only
   the domain array. *)
let split_slot store i d =
  let top = max store.fwd_memo.top store.bwd_memo.top in
  let doms = Array.copy store.doms in
  doms.(i) <- d;
  {
    store with
    doms;
    generation = 1 + max store.generation top;
    trailing = false;
    trail = [];
  }

let split_store store x d = split_slot store (slot_of_name store.layout x) d

let get_slot store i = store.doms.(i)
let get store x = store.doms.(slot_of_name store.layout x)

(* Unconditional domain replacement: invalidates memos.  A copy
   followed by [set_dom] is what [split_store] must match. *)
let set_dom store x d =
  store.doms.(slot_of_name store.layout x) <- d;
  store.generation <- store.generation + 1

let narrow store i d =
  let old = store.doms.(i) in
  let d' = Dom.meet old d in
  if not (Dom.equal d' old) then begin
    if store.trailing then store.trail <- Undo_dom (i, old) :: store.trail;
    store.doms.(i) <- d';
    store.changed <- true;
    store.generation <- store.generation + 1
  end

(* Numeric intervals and three-valued booleans come from the shared
   {!Interval} module (also used by the abstract interpreter in
   [lib/analysis]); the [num]/[bool3] record fields are used unqualified
   throughout this file. *)
open Interval

let tel_memo_hits = Telemetry.Counter.make "solver.hc4_memo_hits"

(* --- forward evaluation ---------------------------------------------- *)

(* Domains of constant terms, cached per domain by term id in 256
   direct-mapped slots, as [Term]'s front cache is: a term's id is never
   reused, so a slot whose id matches holds exactly the domain
   recomputation would build. *)
type cst_cache = { cst_ids : int array; cst_doms : Dom.t array }

let cst_slots = 256

let cst_cache_key =
  Domain.DLS.new_key (fun () ->
      { cst_ids = Array.make cst_slots (-1);
        cst_doms = Array.make cst_slots no_req })

let cst_dom (t : Term.t) v =
  let c = Domain.DLS.get cst_cache_key in
  let i = t.Term.id land (cst_slots - 1) in
  if c.cst_ids.(i) = t.Term.id then c.cst_doms.(i)
  else begin
    let d =
      match v with
      | Value.Bool b -> Dom.booln b
      | Value.Int n -> Dom.intn n n
      | Value.Real r -> Dom.realn r r
      | Value.Vec _ ->
        Value.type_error "solver: vector constant in scalar position"
    in
    c.cst_ids.(i) <- t.Term.id;
    c.cst_doms.(i) <- d;
    d
  end

(* Every term evaluates to a Dom. *)
let rec fwd store (t : Term.t) : Dom.t =
  match t.Term.node with
  | Term.Cst _ | Term.Tvar _ -> fwd_node store t
  | _ ->
    if not store.memo then fwd_node store t
    else begin
      let id = t.Term.id in
      let tbl = store.fwd_memo in
      let i = slot tbl id no_req in
      let g = tbl.gens.(i) in
      if g = store.generation then begin
        Telemetry.Counter.incr tel_memo_hits;
        tbl.doms.(i)
      end
      else begin
        let prev = tbl.doms.(i) in
        (* raising computations are not cached: they re-raise on the
           next visit exactly as recomputation would *)
        let d = fwd_node store t in
        if store.trailing then
          store.trail <- Undo_fwd (id, g, prev) :: store.trail;
        bind tbl id no_req store.generation d;
        d
      end
    end

and fwd_node store (t : Term.t) : Dom.t =
  match t.Term.node with
  | Term.Cst v -> cst_dom t v
  | Term.Tvar x -> store.doms.(var_slot store.layout t x)
  | Term.Tunop (op, e) ->
    let d = fwd store e in
    (match op with
     | Ir.Not -> dom_of_b3 (b3_not (b3_of_dom d))
     | Ir.Neg -> dom_of_num (nneg (num_of_dom d))
     | Ir.Abs_op -> dom_of_num (nabs (num_of_dom d))
     | Ir.To_real ->
       let n = num_of_dom d in
       Dom.realn n.nlo n.nhi
     | Ir.To_int -> dom_of_num (ntrunc (num_of_dom d))
     | Ir.Floor -> dom_of_num (nfloor (num_of_dom d))
     | Ir.Ceil -> dom_of_num (nceil (num_of_dom d)))
  | Term.Tbinop (op, a, b) ->
    let na = num_of_dom (fwd store a) in
    let nb = num_of_dom (fwd store b) in
    let r =
      match op with
      | Ir.Add -> nadd na nb
      | Ir.Sub -> nsub na nb
      | Ir.Mul -> nmul na nb
      | Ir.Div -> ndiv na nb
      | Ir.Mod -> nmod na nb
      | Ir.Min -> nmin na nb
      | Ir.Max -> nmax na nb
    in
    dom_of_num r
  | Term.Tcmp (op, a, b) ->
    let da = fwd store a and db = fwd store b in
    (match da, db with
     | Dom.Dbool x, Dom.Dbool y ->
       (* boolean equality/inequality *)
       let both_sing = Dom.is_singleton da && Dom.is_singleton db in
       let eq_forced = both_sing && x.can_true = y.can_true in
       let b3 =
         match op with
         | Ir.Eq ->
           if both_sing then if eq_forced then b3_true else b3_false
           else b3_top
         | Ir.Ne ->
           if both_sing then if eq_forced then b3_false else b3_true
           else b3_top
         | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge ->
           Value.type_error "solver: ordering on booleans"
       in
       dom_of_b3 b3
     | _, _ ->
       let na = num_of_dom da and nb = num_of_dom db in
       let b3 =
         match op with
         | Ir.Lt ->
           if na.nhi < nb.nlo then b3_true
           else if na.nlo >= nb.nhi then b3_false
           else b3_top
         | Ir.Le ->
           if na.nhi <= nb.nlo then b3_true
           else if na.nlo > nb.nhi then b3_false
           else b3_top
         | Ir.Gt ->
           if na.nlo > nb.nhi then b3_true
           else if na.nhi <= nb.nlo then b3_false
           else b3_top
         | Ir.Ge ->
           if na.nlo >= nb.nhi then b3_true
           else if na.nhi < nb.nlo then b3_false
           else b3_top
         | Ir.Eq ->
           if na.nlo = na.nhi && nb.nlo = nb.nhi && na.nlo = nb.nlo then
             b3_true
           else if na.nhi < nb.nlo || nb.nhi < na.nlo then b3_false
           else b3_top
         | Ir.Ne ->
           if na.nhi < nb.nlo || nb.nhi < na.nlo then b3_true
           else if na.nlo = na.nhi && nb.nlo = nb.nhi && na.nlo = nb.nlo then
             b3_false
           else b3_top
       in
       dom_of_b3 b3)
  | Term.Tand (a, b) ->
    dom_of_b3 (b3_and (b3_of_dom (fwd store a)) (b3_of_dom (fwd store b)))
  | Term.Tor (a, b) ->
    dom_of_b3 (b3_or (b3_of_dom (fwd store a)) (b3_of_dom (fwd store b)))
  | Term.Tnot e -> dom_of_b3 (b3_not (b3_of_dom (fwd store e)))
  | Term.Tite (c, a, b) ->
    let bc = b3_of_dom (fwd store c) in
    if not bc.bf then fwd store a
    else if not bc.bt then fwd store b
    else Dom.hull (fwd store a) (fwd store b)

let can_meet a b =
  match Dom.meet a b with _ -> true | exception Dom.Empty -> false

(* --- backward projection ---------------------------------------------- *)

let negate_cmp = function
  | Ir.Eq -> Ir.Ne
  | Ir.Ne -> Ir.Eq
  | Ir.Lt -> Ir.Ge
  | Ir.Le -> Ir.Gt
  | Ir.Gt -> Ir.Le
  | Ir.Ge -> Ir.Lt

(* the strict-bound steps of [bwd_cmp]: one when both sides are ints *)
let eps_lt ints hi = if ints then hi -. 1.0 else hi
let eps_gt ints lo = if ints then lo +. 1.0 else lo

(* [Ne] prunes only when [other] is an integer singleton at a boundary
   of [this] *)
let prune_ne this other =
  if other.nlo = other.nhi && is_int this && is_int other then begin
    let k = other.nlo in
    if this.nlo = k then Some { this with nlo = k +. 1.0 }
    else if this.nhi = k then Some { this with nhi = k -. 1.0 }
    else None
  end
  else None

(* Narrow the variables under [t] so that its value may lie in [req]. *)
let rec bwd store (t : Term.t) (req : Dom.t) : unit =
  match t.Term.node with
  | Term.Cst _ | Term.Tvar _ -> bwd_node store t req
  | _ ->
    if not store.memo then bwd_node store t req
    else begin
      let id = t.Term.id in
      let tbl = store.bwd_memo in
      let g = tbl.gens.(slot tbl id req) in
      if g = store.generation then Telemetry.Counter.incr tel_memo_hits
      else begin
        let g0 = store.generation in
        bwd_node store t req;
        (* record only completed no-op calls; a raising call never gets
           here, a narrowing call fails the generation check *)
        if store.generation = g0 then begin
          if store.trailing then
            store.trail <- Undo_bwd (id, req, g) :: store.trail;
          bind tbl id req g0 no_req
        end
      end
    end

and bwd_node store (t : Term.t) (req : Dom.t) : unit =
  match t.Term.node with
  | Term.Cst v -> if not (can_meet req (fwd store t)) then raise Dom.Empty else ignore v
  | Term.Tvar x -> narrow store (var_slot store.layout t x) req
  | Term.Tnot e -> bwd store e (dom_of_b3 (b3_not (b3_of_dom req)))
  | Term.Tand (a, b) ->
    let r = b3_of_dom req in
    if not r.bf then begin
      (* must be true: both conjuncts true *)
      bwd store a (Dom.booln true);
      bwd store b (Dom.booln true)
    end
    else if not r.bt then begin
      (* must be false: if one side is forced true, the other is false *)
      let ba = b3_of_dom (fwd store a) in
      let bb = b3_of_dom (fwd store b) in
      if not ba.bf then bwd store b (Dom.booln false)
      else if not bb.bf then bwd store a (Dom.booln false)
    end
  | Term.Tor (a, b) ->
    let r = b3_of_dom req in
    if not r.bt then begin
      bwd store a (Dom.booln false);
      bwd store b (Dom.booln false)
    end
    else if not r.bf then begin
      let ba = b3_of_dom (fwd store a) in
      let bb = b3_of_dom (fwd store b) in
      if not ba.bt then bwd store b (Dom.booln true)
      else if not bb.bt then bwd store a (Dom.booln true)
    end
  | Term.Tcmp (op, a, b) ->
    let r = b3_of_dom req in
    if not r.bf then bwd_cmp store op a b
    else if not r.bt then bwd_cmp store (negate_cmp op) a b
  | Term.Tite (c, a, b) ->
    let bc = b3_of_dom (fwd store c) in
    if not bc.bf then bwd store a req
    else if not bc.bt then bwd store b req
    else begin
      let fa = fwd store a and fb = fwd store b in
      let a_ok = can_meet fa req and b_ok = can_meet fb req in
      match a_ok, b_ok with
      | false, false -> raise Dom.Empty
      | false, true ->
        bwd store c (Dom.booln false);
        bwd store b req
      | true, false ->
        bwd store c (Dom.booln true);
        bwd store a req
      | true, true -> ()
    end
  | Term.Tunop (op, e) ->
    (match op with
     | Ir.Not -> bwd store e (dom_of_b3 (b3_not (b3_of_dom req)))
     | Ir.Neg -> bwd_num store e (nneg (num_of_dom req))
     | Ir.Abs_op ->
       (* |e| in [r.lo, r.hi] means e in -[r.lo,r.hi] union [r.lo,r.hi];
          e's current sign picks the branch (or the hull if unknown).
          r.hi < 0 empties via [nmk]: an absolute value is never
          negative. *)
       let r = num_of_dom req in
       let rlo = Float.max 0.0 r.nlo in
       let e_now = num_of_dom (fwd store e) in
       let lo, hi =
         if e_now.nlo >= 0.0 then (rlo, r.nhi)
         else if e_now.nhi <= 0.0 then (-.r.nhi, -.rlo)
         else (-.r.nhi, r.nhi)
       in
       bwd_num store e (nmk (is_int r) lo hi)
     | Ir.To_real ->
       (match fwd store e with
        | Dom.Dbool _ ->
          let r = num_of_dom req in
          let bt = r.nhi >= 1.0 && 1.0 >= r.nlo in
          let bf = r.nlo <= 0.0 && 0.0 <= r.nhi in
          bwd store e (dom_of_b3 (b3_meet (b3_of_dom (fwd store e)) (b3 bt bf)))
        | _ ->
          let r = num_of_dom req in
          bwd_num store e { r with nint = 0.0 })
     | Ir.To_int ->
       (match fwd store e with
        | Dom.Dbool _ ->
          let r = num_of_dom req in
          let bt = r.nhi >= 1.0 && 1.0 >= r.nlo in
          let bf = r.nlo <= 0.0 && 0.0 <= r.nhi in
          bwd store e (dom_of_b3 (b3_meet (b3_of_dom (fwd store e)) (b3 bt bf)))
        | _ ->
          let r = num_of_dom req in
          (* e truncates into [lo,hi]: e in (lo-1, hi+1) *)
          bwd_num store e (nmk false (r.nlo -. 1.0) (r.nhi +. 1.0)))
     | Ir.Floor ->
       let r = num_of_dom req in
       bwd_num store e (nmk false r.nlo (r.nhi +. 1.0))
     | Ir.Ceil ->
       let r = num_of_dom req in
       bwd_num store e (nmk false (r.nlo -. 1.0) r.nhi))
  | Term.Tbinop (op, a, b) ->
    let r = num_of_dom req in
    let na = num_of_dom (fwd store a) in
    let nb = num_of_dom (fwd store b) in
    (match op with
     | Ir.Add ->
       bwd_num store a (nsub r nb);
       bwd_num store b (nsub r na)
     | Ir.Sub ->
       bwd_num store a (nadd r nb);
       bwd_num store b (nsub na r)
     | Ir.Mul ->
       if not (nb.nlo <= 0.0 && 0.0 <= nb.nhi) then
         bwd_num store a (ndiv r nb);
       if not (na.nlo <= 0.0 && 0.0 <= na.nhi) then
         bwd_num store b (ndiv r na)
     | Ir.Div ->
       (* a / b = r  =>  a in r*b (real case; skip for ints: truncation) *)
       if not (is_int na && is_int nb) then bwd_num store a (nmul r nb)
     | Ir.Mod ->
       (* No useful projection onto the dividend (mod wraps), but the
          result's sign follows the divisor: a result bounded away from
          zero pins the divisor's sign, and |result| < |divisor| bounds
          its magnitude from below. *)
       let one = if is_int r && is_int nb then 1.0 else 0.0 in
       if r.nlo > 0.0 then
         bwd_num store b { nb with nlo = Float.max nb.nlo (r.nlo +. one) }
       else if r.nhi < 0.0 then
         bwd_num store b { nb with nhi = Float.min nb.nhi (r.nhi -. one) }
     | Ir.Min ->
       (* min(a,b) >= lo(r): both >= lo(r); if one side's lo exceeds
          hi(r), the other must be <= hi(r) *)
       bwd_num store a { ntop with nlo = r.nlo; nint = na.nint };
       bwd_num store b { ntop with nlo = r.nlo; nint = nb.nint };
       if na.nlo > r.nhi then bwd_num store b { nb with nhi = Float.min nb.nhi r.nhi };
       if nb.nlo > r.nhi then bwd_num store a { na with nhi = Float.min na.nhi r.nhi }
     | Ir.Max ->
       bwd_num store a { ntop with nhi = r.nhi; nint = na.nint };
       bwd_num store b { ntop with nhi = r.nhi; nint = nb.nint };
       if na.nhi < r.nlo then bwd_num store b { nb with nlo = Float.max nb.nlo r.nlo };
       if nb.nhi < r.nlo then bwd_num store a { na with nlo = Float.max na.nlo r.nlo })

and bwd_num store t n =
  (* only push numeric requirements when they actually constrain *)
  match fwd store t with
  | Dom.Dbool _ ->
    (* a boolean in numeric position: constrain via 0/1 coercion *)
    let bt = n.nhi >= 1.0 && 1.0 >= n.nlo in
    let bf = n.nlo <= 0.0 && 0.0 <= n.nhi in
    bwd store t (dom_of_b3 (b3 bt bf))
  | _ ->
    let d =
      if is_int n then
        Dom.Dint
          { lo = Dom.int_of_float_up n.nlo; hi = Dom.int_of_float_down n.nhi }
      else Dom.Dreal { lo = n.nlo; hi = n.nhi }
    in
    bwd store t d

and bwd_cmp store op a b =
  let da = fwd store a and db = fwd store b in
  match da, db with
  | Dom.Dbool x, Dom.Dbool y ->
    (match op with
     | Ir.Eq ->
       if Dom.is_singleton da then bwd store b da;
       if Dom.is_singleton db then bwd store a db
     | Ir.Ne ->
       if Dom.is_singleton da then
         bwd store b (dom_of_b3 (b3_not (b3 x.can_true x.can_false)));
       if Dom.is_singleton db then
         bwd store a (dom_of_b3 (b3_not (b3 y.can_true y.can_false)))
     | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge ->
       Value.type_error "solver: ordering on booleans")
  | _, _ ->
    let na = num_of_dom da and nb = num_of_dom db in
    let ints = is_int na && is_int nb in
    (match op with
     | Ir.Le ->
       bwd_num store a { na with nhi = Float.min na.nhi nb.nhi };
       bwd_num store b { nb with nlo = Float.max nb.nlo na.nlo }
     | Ir.Lt ->
       bwd_num store a { na with nhi = Float.min na.nhi (eps_lt ints nb.nhi) };
       bwd_num store b { nb with nlo = Float.max nb.nlo (eps_gt ints na.nlo) }
     | Ir.Ge ->
       bwd_num store a { na with nlo = Float.max na.nlo nb.nlo };
       bwd_num store b { nb with nhi = Float.min nb.nhi na.nhi }
     | Ir.Gt ->
       bwd_num store a { na with nlo = Float.max na.nlo (eps_gt ints nb.nlo) };
       bwd_num store b { nb with nhi = Float.min nb.nhi (eps_lt ints na.nhi) }
     | Ir.Eq ->
       let m = nmeet na nb in
       bwd_num store a { m with nint = na.nint };
       bwd_num store b { m with nint = nb.nint }
     | Ir.Ne ->
       (* only prune when one side is an integer singleton at a boundary *)
       (match prune_ne na nb with
        | Some na' -> bwd_num store a na'
        | None -> ());
       (match prune_ne nb na with
        | Some nb' -> bwd_num store b nb'
        | None -> ()))

(* --- fixpoint ---------------------------------------------------------- *)

let default_max_rounds = 30

let tel_rounds = Telemetry.Counter.make "solver.hc4_rounds"

(* Propagate [t] = true.  Returns [`Unsat] if the store becomes empty. *)
let propagate ?(max_rounds = default_max_rounds) store (t : Term.t) =
  let rounds = ref 0 in
  let r =
    try
      let continue_ = ref true in
      while !continue_ && !rounds < max_rounds do
        store.changed <- false;
        bwd store t Dom.bool_true;
        if not (b3_of_dom (fwd store t)).bt then raise Dom.Empty;
        continue_ := store.changed;
        incr rounds
      done;
      `Ok
    with Dom.Empty -> `Unsat
  in
  Telemetry.Counter.add tel_rounds !rounds;
  r

let rec undo store = function
  | [] -> ()
  | u :: rest ->
    (match u with
     | Undo_dom (i, d) -> store.doms.(i) <- d
     | Undo_fwd (id, g, d) -> bind store.fwd_memo id no_req g d
     | Undo_bwd (id, req, g) ->
       bind store.bwd_memo id req g no_req);
    undo store rest

let restore store generation changed =
  undo store store.trail;
  store.trail <- [];
  store.trailing <- false;
  store.generation <- generation;
  store.changed <- changed

(* [propagate] on [store], then undo every write it made (see the
   header).  A memo undo records the binding found by the lookup that
   preceded the write, not one read at write time.  That is exact: the
   restore replays newest first, so each key ends at the binding saved
   by its oldest record, and no write to that key can precede the
   lookup behind the oldest record.  An undone insertion leaves its key
   in the table at generation -1, i.e. absent. *)
let propagate_and_restore ?max_rounds store t =
  if store.trailing then invalid_arg "Hc4.propagate_and_restore: nested";
  let generation = store.generation and changed = store.changed in
  store.trailing <- true;
  match propagate ?max_rounds store t with
  | r ->
    restore store generation changed;
    r
  | exception e ->
    restore store generation changed;
    raise e
