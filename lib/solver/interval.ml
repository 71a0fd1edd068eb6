(* Interval arithmetic shared by the HC4 propagator and the abstract
   interpreter.  All rules are conservative (over-approximating); see
   the .mli for the exactness guarantees on point intervals.

   [num] is an all-float record, which OCaml stores flat: one block of
   three unboxed doubles.  The helpers are [@inline] because this
   compiler has no flambda: a call that is not inlined boxes each float
   argument and result.  Across modules that only holds in builds
   without [-opaque], which dune's dev profile passes. *)

module Value = Slim.Value

type num = { nlo : float; nhi : float; nint : float }

let[@inline] int_flag b = if b then 1.0 else 0.0
let[@inline] is_int n = n.nint <> 0.0

let[@inline] nmk nint nlo nhi =
  if nlo > nhi then raise Dom.Empty;
  { nlo; nhi; nint = int_flag nint }

let[@inline] num_of_dom = function
  | Dom.Dint { lo; hi } ->
    { nlo = float_of_int lo; nhi = float_of_int hi; nint = 1.0 }
  | Dom.Dreal { lo; hi } -> { nlo = lo; nhi = hi; nint = 0.0 }
  | Dom.Dbool { can_true; can_false } ->
    (* booleans coerce to 0/1 under To_real / To_int *)
    {
      nlo = (if can_false then 0.0 else 1.0);
      nhi = (if can_true then 1.0 else 0.0);
      nint = 1.0;
    }

let[@inline] dom_of_num n =
  if is_int n then
    Dom.intn (Dom.int_of_float_up n.nlo) (Dom.int_of_float_down n.nhi)
  else Dom.realn n.nlo n.nhi

let ntop = { nlo = -1e18; nhi = 1e18; nint = 0.0 }

let[@inline] nadd a b =
  nmk (is_int a && is_int b) (a.nlo +. b.nlo) (a.nhi +. b.nhi)

let[@inline] nsub a b =
  nmk (is_int a && is_int b) (a.nlo -. b.nhi) (a.nhi -. b.nlo)

(* The corners' min and max, folded left to right as [List.fold_left
   Float.min infinity] did: [Float.min]/[max] propagate [nan] and order
   [-0.] below [0.], so the starting [infinity] never shows. *)
let[@inline] min4 c0 c1 c2 c3 = Float.min (Float.min (Float.min c0 c1) c2) c3
let[@inline] max4 c0 c1 c2 c3 = Float.max (Float.max (Float.max c0 c1) c2) c3

let[@inline] nmul a b =
  let c0 = a.nlo *. b.nlo and c1 = a.nlo *. b.nhi in
  let c2 = a.nhi *. b.nlo and c3 = a.nhi *. b.nhi in
  nmk (is_int a && is_int b) (min4 c0 c1 c2 c3) (max4 c0 c1 c2 c3)

let[@inline] ndiv a b =
  if b.nlo <= 0.0 && b.nhi >= 0.0 then ntop
  else begin
    let c0 = a.nlo /. b.nlo and c1 = a.nlo /. b.nhi in
    let c2 = a.nhi /. b.nlo and c3 = a.nhi /. b.nhi in
    let lo = min4 c0 c1 c2 c3 and hi = max4 c0 c1 c2 c3 in
    (* integer division truncates: widen by one to stay conservative *)
    if is_int a && is_int b then
      nmk true (Float.floor lo -. 1.0) (Float.ceil hi +. 1.0)
    else nmk false lo hi
  end

let[@inline] nmod a b =
  (* result magnitude is below |divisor|; sign follows the divisor
     (MATLAB-style, see [Value.modulo]).  When the divisor's sign is
     known the result interval is one-sided: int mod with b in [1,k]
     lands in [0, k-1], real mod in [0, k); symmetrically for b < 0.
     Only a zero-crossing divisor needs the two-sided fallback. *)
  let nint = is_int a && is_int b in
  if a.nlo = a.nhi && b.nlo = b.nhi && b.nlo <> 0.0 then begin
    (* point operands: the result is a function of the operands, so the
       interval is the exact singleton.  [Float.rem] is exact for both
       the integral and the real case; the sign adjustment mirrors
       [Value.modulo]. *)
    let y = b.nlo in
    let r = Float.rem a.nlo y in
    let r = if (r < 0.0 && y > 0.0) || (r > 0.0 && y < 0.0) then r +. y else r in
    nmk nint r r
  end
  else begin
    let shrink = if nint then 1.0 else 0.0 in
    if b.nlo > 0.0 then nmk nint 0.0 (Float.max 0.0 (b.nhi -. shrink))
    else if b.nhi < 0.0 then nmk nint (Float.min 0.0 (-.(-.b.nlo -. shrink))) 0.0
    else
      let m = Float.max (Float.abs b.nlo) (Float.abs b.nhi) in
      nmk nint (-.m) m
  end

let[@inline] nneg a = nmk (is_int a) (-.a.nhi) (-.a.nlo)

let[@inline] nabs a =
  if a.nlo >= 0.0 then a
  else if a.nhi <= 0.0 then nneg a
  else nmk (is_int a) 0.0 (Float.max (-.a.nlo) a.nhi)

let[@inline] nmin a b =
  nmk (is_int a && is_int b) (Float.min a.nlo b.nlo) (Float.min a.nhi b.nhi)

let[@inline] nmax a b =
  nmk (is_int a && is_int b) (Float.max a.nlo b.nlo) (Float.max a.nhi b.nhi)

let[@inline] nfloor a = nmk (is_int a) (Float.floor a.nlo) (Float.floor a.nhi)
let[@inline] nceil a = nmk (is_int a) (Float.ceil a.nlo) (Float.ceil a.nhi)

(* truncation toward zero *)
let[@inline] ntrunc a = nmk true (Float.trunc a.nlo) (Float.trunc a.nhi)

let[@inline] nmeet a b =
  nmk (is_int a || is_int b) (Float.max a.nlo b.nlo) (Float.min a.nhi b.nhi)

let num_of_value v =
  let r = Value.to_real v in
  let nint = match v with Value.Int _ | Value.Bool _ -> true | _ -> false in
  { nlo = r; nhi = r; nint = int_flag nint }

(* --- boolean three-valued helpers ------------------------------------ *)

type bool3 = { bt : bool; bf : bool }  (* can be true / can be false *)

(* The four values, shared, so no combinator allocates. *)
let b3_top = { bt = true; bf = true }
let b3_true = { bt = true; bf = false }
let b3_false = { bt = false; bf = true }
let b3_none = { bt = false; bf = false }

let[@inline] b3 bt bf =
  if bt then if bf then b3_top else b3_true
  else if bf then b3_false
  else b3_none

let b3_of_dom = function
  | Dom.Dbool { can_true; can_false } -> b3 can_true can_false
  | Dom.Dint { lo; hi } ->
    (* ints coerce to bool as (<> 0) *)
    b3 (not (lo = 0 && hi = 0)) (lo <= 0 && 0 <= hi)
  | Dom.Dreal { lo; hi } ->
    b3 (not (lo = 0.0 && hi = 0.0)) (lo <= 0.0 && 0.0 <= hi)

let[@inline] dom_of_b3 { bt; bf } =
  if not (bt || bf) then raise Dom.Empty;
  Dom.bool_of bt bf

let[@inline] b3_and a b = b3 (a.bt && b.bt) (a.bf || b.bf)
let[@inline] b3_or a b = b3 (a.bt || b.bt) (a.bf && b.bf)
let[@inline] b3_not a = b3 a.bf a.bt

let b3_meet a b =
  let r = b3 (a.bt && b.bt) (a.bf && b.bf) in
  if not (r.bt || r.bf) then raise Dom.Empty;
  r

let[@inline] b3_join a b = b3 (a.bt || b.bt) (a.bf || b.bf)
