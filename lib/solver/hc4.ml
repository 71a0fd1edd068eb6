(* HC4-style constraint propagation: forward interval evaluation and
   backward projection over solver terms.  All rules are conservative
   (over-approximating), so propagation never loses solutions; final
   answers are confirmed by concrete evaluation in [Csp].

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

   The symbolic executor checks each fork arm against one propagated
   prefix box and must leave the box as it found it for the next arm.
   [propagate_and_restore] does that without copying: while it runs,
   every write propagation makes to the store is pushed on an undo
   trail (a domain narrowing with the old domain, a memo write with the
   old binding or its absence), and afterwards, normally or by an
   exception, the trail is replayed newest first and [generation] and
   [changed] are reset.  The store then holds exactly the bindings it
   held before, so the answer, and every later propagation on the box
   (answers, domains, memo hits, rounds), is what a copy of the box
   would have given. *)

module Value = Slim.Value
module Ir = Slim.Ir

(* A write to undo: the key and what it was bound to before. *)
type undo =
  | Undo_dom of string * Dom.t
  | Undo_fwd of int * (int * Dom.t) option
  | Undo_bwd of (int * Dom.t) * int option

type store = {
  doms : (string, Dom.t) Hashtbl.t;
  mutable changed : bool;
  memo : bool;
  mutable generation : int;  (* bumped on every narrowing *)
  fwd_memo : (int, int * Dom.t) Hashtbl.t;  (* term id -> generation, dom *)
  bwd_memo : (int * Dom.t, int) Hashtbl.t;
      (* (term id, requirement) -> generation at which the call was a no-op *)
  mutable trailing : bool;
      (* inside [propagate_and_restore]; tested before an undo record is
         built, so other propagations allocate nothing for the trail *)
  mutable trail : undo list;  (* newest first *)
}

let create_store ?(memo = true) bindings =
  let doms = Hashtbl.create 16 in
  List.iter (fun (x, d) -> Hashtbl.replace doms x d) bindings;
  {
    doms;
    changed = false;
    memo;
    generation = 0;
    fwd_memo = Hashtbl.create (if memo then 64 else 1);
    bwd_memo = Hashtbl.create (if memo then 64 else 1);
    trailing = false;
    trail = [];
  }

(* Memo entries are only valid for the exact box they were computed
   against, so a copy may keep them — but the copy gets fresh tables:
   the branches diverge, and sharing mutable tables across stores whose
   generations advance independently would let one branch's entries
   shadow the other's.  Callers that mutate [doms] directly after
   copying (the DFS split) must go through [set_dom] so the generation
   advances past every cached stamp. *)
let copy_store store =
  {
    store with
    doms = Hashtbl.copy store.doms;
    fwd_memo = Hashtbl.copy store.fwd_memo;
    bwd_memo = Hashtbl.copy store.bwd_memo;
    trailing = false;
    trail = [];
  }

let get store x =
  match Hashtbl.find_opt store.doms x with
  | Some d -> d
  | None -> Value.type_error "unknown solver variable %s" x

(* Unconditional domain replacement (search splits): invalidates memos. *)
let set_dom store x d =
  Hashtbl.replace store.doms x d;
  store.generation <- store.generation + 1

let narrow store x d =
  let old = get store x in
  let d' = Dom.meet old d in
  if not (Dom.equal d' old) then begin
    if store.trailing then store.trail <- Undo_dom (x, old) :: store.trail;
    Hashtbl.replace store.doms x d';
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

(* Every term evaluates to a Dom. *)
let rec fwd store (t : Term.t) : Dom.t =
  match t.Term.node with
  | Term.Cst _ | Term.Tvar _ -> fwd_node store t
  | _ ->
    if not store.memo then fwd_node store t
    else begin
      match Hashtbl.find_opt store.fwd_memo t.Term.id with
      | Some (g, d) when g = store.generation ->
        Telemetry.Counter.incr tel_memo_hits;
        d
      | prev ->
        (* raising computations are not cached: they re-raise on the
           next visit exactly as recomputation would *)
        let d = fwd_node store t in
        if store.trailing then
          store.trail <- Undo_fwd (t.Term.id, prev) :: store.trail;
        Hashtbl.replace store.fwd_memo t.Term.id (store.generation, d);
        d
    end

and fwd_node store (t : Term.t) : Dom.t =
  match t.Term.node with
  | Term.Cst (Value.Bool b) -> Dom.booln b
  | Term.Cst (Value.Int i) -> Dom.intn i i
  | Term.Cst (Value.Real r) -> Dom.realn r r
  | Term.Cst (Value.Vec _) ->
    Value.type_error "solver: vector constant in scalar position"
  | Term.Tvar x -> get store x
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

(* Narrow the variables under [t] so that its value may lie in [req]. *)
let rec bwd store (t : Term.t) (req : Dom.t) : unit =
  match t.Term.node with
  | Term.Cst _ | Term.Tvar _ -> bwd_node store t req
  | _ ->
    if not store.memo then bwd_node store t req
    else begin
      let key = (t.Term.id, req) in
      match Hashtbl.find_opt store.bwd_memo key with
      | Some g when g = store.generation -> Telemetry.Counter.incr tel_memo_hits
      | prev ->
        let g0 = store.generation in
        bwd_node store t req;
        (* record only completed no-op calls; a raising call never gets
           here, a narrowing call fails the generation check *)
        if store.generation = g0 then begin
          if store.trailing then
            store.trail <- Undo_bwd (key, prev) :: store.trail;
          Hashtbl.replace store.bwd_memo key g0
        end
    end

and bwd_node store (t : Term.t) (req : Dom.t) : unit =
  match t.Term.node with
  | Term.Cst v -> if not (can_meet req (fwd store t)) then raise Dom.Empty else ignore v
  | Term.Tvar x -> narrow store x req
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
       bwd_num store e (nmk r.nint lo hi)
     | Ir.To_real ->
       (match fwd store e with
        | Dom.Dbool _ ->
          let r = num_of_dom req in
          let bt = r.nhi >= 1.0 && 1.0 >= r.nlo in
          let bf = r.nlo <= 0.0 && 0.0 <= r.nhi in
          bwd store e (dom_of_b3 (b3_meet (b3_of_dom (fwd store e)) { bt; bf }))
        | _ ->
          let r = num_of_dom req in
          bwd_num store e { r with nint = false })
     | Ir.To_int ->
       (match fwd store e with
        | Dom.Dbool _ ->
          let r = num_of_dom req in
          let bt = r.nhi >= 1.0 && 1.0 >= r.nlo in
          let bf = r.nlo <= 0.0 && 0.0 <= r.nhi in
          bwd store e (dom_of_b3 (b3_meet (b3_of_dom (fwd store e)) { bt; bf }))
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
       if not (na.nint && nb.nint) then bwd_num store a (nmul r nb)
     | Ir.Mod ->
       (* No useful projection onto the dividend (mod wraps), but the
          result's sign follows the divisor: a result bounded away from
          zero pins the divisor's sign, and |result| < |divisor| bounds
          its magnitude from below. *)
       let one = if r.nint && nb.nint then 1.0 else 0.0 in
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
  let d =
    if n.nint then
      Dom.Dint
        { lo = Dom.int_of_float_up n.nlo; hi = Dom.int_of_float_down n.nhi }
    else Dom.Dreal { lo = n.nlo; hi = n.nhi }
  in
  (match fwd store t with
   | Dom.Dbool _ ->
     (* a boolean in numeric position: constrain via 0/1 coercion *)
     let bt = n.nhi >= 1.0 && 1.0 >= n.nlo in
     let bf = n.nlo <= 0.0 && 0.0 <= n.nhi in
     bwd store t (dom_of_b3 { bt; bf })
   | _ -> bwd store t d)

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
         bwd store b (dom_of_b3 (b3_not { bt = x.can_true; bf = x.can_false }));
       if Dom.is_singleton db then
         bwd store a (dom_of_b3 (b3_not { bt = y.can_true; bf = y.can_false }))
     | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge ->
       Value.type_error "solver: ordering on booleans")
  | _, _ ->
    let na = num_of_dom da and nb = num_of_dom db in
    let eps_lt hi = if na.nint && nb.nint then hi -. 1.0 else hi in
    let eps_gt lo = if na.nint && nb.nint then lo +. 1.0 else lo in
    (match op with
     | Ir.Le ->
       bwd_num store a { na with nhi = Float.min na.nhi nb.nhi };
       bwd_num store b { nb with nlo = Float.max nb.nlo na.nlo }
     | Ir.Lt ->
       bwd_num store a { na with nhi = Float.min na.nhi (eps_lt nb.nhi) };
       bwd_num store b { nb with nlo = Float.max nb.nlo (eps_gt na.nlo) }
     | Ir.Ge ->
       bwd_num store a { na with nlo = Float.max na.nlo nb.nlo };
       bwd_num store b { nb with nhi = Float.min nb.nhi na.nhi }
     | Ir.Gt ->
       bwd_num store a { na with nlo = Float.max na.nlo (eps_gt nb.nlo) };
       bwd_num store b { nb with nhi = Float.min nb.nhi (eps_lt na.nhi) }
     | Ir.Eq ->
       let m = nmeet na nb in
       bwd_num store a { m with nint = na.nint };
       bwd_num store b { m with nint = nb.nint }
     | Ir.Ne ->
       (* only prune when one side is an integer singleton at a boundary *)
       let prune this other =
         if other.nlo = other.nhi && this.nint && other.nint then begin
           let k = other.nlo in
           if this.nlo = k then Some { this with nlo = k +. 1.0 }
           else if this.nhi = k then Some { this with nhi = k -. 1.0 }
           else None
         end
         else None
       in
       (match prune na nb with
        | Some na' -> bwd_num store a na'
        | None -> ());
       (match prune nb na with
        | Some nb' -> bwd_num store b nb'
        | None -> ()))

(* --- fixpoint ---------------------------------------------------------- *)

let default_max_rounds = 30

let tel_rounds = Telemetry.Counter.make "solver.hc4_rounds"

(* Propagate [t] = true.  Returns [`Unsat] if the store becomes empty. *)
let propagate ?(max_rounds = default_max_rounds) store (t : Term.t) =
  let rounds = ref 0 in
  let finish r =
    Telemetry.Counter.add tel_rounds !rounds;
    r
  in
  try
    let continue_ = ref true in
    while !continue_ && !rounds < max_rounds do
      store.changed <- false;
      bwd store t (Dom.booln true);
      (match fwd store t with
       | d ->
         let b = b3_of_dom d in
         if not b.bt then raise Dom.Empty
       | exception Dom.Empty -> raise Dom.Empty);
      continue_ := store.changed;
      incr rounds
    done;
    finish `Ok
  with Dom.Empty -> finish `Unsat

(* [propagate] on [store], then undo every write it made (see the
   header).  A memo undo records the binding found by the lookup that
   preceded the write, not one read at write time.  That is exact: the
   restore replays newest first, so each key ends at the binding saved
   by its oldest record, and no write to that key can precede the
   lookup behind the oldest record. *)
let propagate_and_restore ?max_rounds store t =
  if store.trailing then invalid_arg "Hc4.propagate_and_restore: nested";
  let generation = store.generation and changed = store.changed in
  store.trailing <- true;
  let restore () =
    List.iter
      (function
        | Undo_dom (x, d) -> Hashtbl.replace store.doms x d
        | Undo_fwd (k, None) -> Hashtbl.remove store.fwd_memo k
        | Undo_fwd (k, Some v) -> Hashtbl.replace store.fwd_memo k v
        | Undo_bwd (k, None) -> Hashtbl.remove store.bwd_memo k
        | Undo_bwd (k, Some g) -> Hashtbl.replace store.bwd_memo k g)
      store.trail;
    store.trail <- [];
    store.trailing <- false;
    store.generation <- generation;
    store.changed <- changed
  in
  match propagate ?max_rounds store t with
  | r ->
    restore ();
    r
  | exception e ->
    restore ();
    raise e
