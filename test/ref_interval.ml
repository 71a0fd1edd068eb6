(* The interval arithmetic as it was before [Interval.num] became a flat
   all-float record: a [bool] integrality flag, list folds in [nmul] and
   [ndiv], and a fresh record from every [bool3] combinator.  Kept
   verbatim as an independent reference for the differential property
   in test_propagation.ml. *)

module Dom = Solver.Dom
module Value = Slim.Value

type num = { nlo : float; nhi : float; nint : bool }

let num_of_dom = function
  | Dom.Dint { lo; hi } ->
    { nlo = float_of_int lo; nhi = float_of_int hi; nint = true }
  | Dom.Dreal { lo; hi } -> { nlo = lo; nhi = hi; nint = false }
  | Dom.Dbool { can_true; can_false } ->
    (* booleans coerce to 0/1 under To_real / To_int *)
    {
      nlo = (if can_false then 0.0 else 1.0);
      nhi = (if can_true then 1.0 else 0.0);
      nint = true;
    }

let dom_of_num { nlo; nhi; nint } =
  if nint then Dom.intn (Dom.int_of_float_up nlo) (Dom.int_of_float_down nhi)
  else Dom.realn nlo nhi

let ntop = { nlo = -1e18; nhi = 1e18; nint = false }

let nmk nint nlo nhi =
  if nlo > nhi then raise Dom.Empty;
  { nlo; nhi; nint }

let nadd a b = nmk (a.nint && b.nint) (a.nlo +. b.nlo) (a.nhi +. b.nhi)
let nsub a b = nmk (a.nint && b.nint) (a.nlo -. b.nhi) (a.nhi -. b.nlo)

let nmul a b =
  let c = [ a.nlo *. b.nlo; a.nlo *. b.nhi; a.nhi *. b.nlo; a.nhi *. b.nhi ] in
  nmk (a.nint && b.nint)
    (List.fold_left Float.min infinity c)
    (List.fold_left Float.max neg_infinity c)

let ndiv a b =
  if b.nlo <= 0.0 && b.nhi >= 0.0 then ntop
  else begin
    let c =
      [ a.nlo /. b.nlo; a.nlo /. b.nhi; a.nhi /. b.nlo; a.nhi /. b.nhi ]
    in
    let lo = List.fold_left Float.min infinity c in
    let hi = List.fold_left Float.max neg_infinity c in
    (* integer division truncates: widen by one to stay conservative *)
    if a.nint && b.nint then nmk true (Float.floor lo -. 1.0) (Float.ceil hi +. 1.0)
    else nmk false lo hi
  end

let nmod a b =
  (* result magnitude is below |divisor|; sign follows the divisor
     (MATLAB-style, see [Value.modulo]).  When the divisor's sign is
     known the result interval is one-sided: int mod with b in [1,k]
     lands in [0, k-1], real mod in [0, k); symmetrically for b < 0.
     Only a zero-crossing divisor needs the two-sided fallback. *)
  let nint = a.nint && b.nint in
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
    let shrink m = if nint then m -. 1.0 else m in
    if b.nlo > 0.0 then nmk nint 0.0 (Float.max 0.0 (shrink b.nhi))
    else if b.nhi < 0.0 then nmk nint (Float.min 0.0 (-.shrink (-.b.nlo))) 0.0
    else
      let m = Float.max (Float.abs b.nlo) (Float.abs b.nhi) in
      nmk nint (-.m) m
  end

let nneg a = nmk a.nint (-.a.nhi) (-.a.nlo)

let nabs a =
  if a.nlo >= 0.0 then a
  else if a.nhi <= 0.0 then nneg a
  else nmk a.nint 0.0 (Float.max (-.a.nlo) a.nhi)

let nmin a b = nmk (a.nint && b.nint) (Float.min a.nlo b.nlo) (Float.min a.nhi b.nhi)
let nmax a b = nmk (a.nint && b.nint) (Float.max a.nlo b.nlo) (Float.max a.nhi b.nhi)
let nfloor a = nmk a.nint (Float.floor a.nlo) (Float.floor a.nhi)
let nceil a = nmk a.nint (Float.ceil a.nlo) (Float.ceil a.nhi)

(* truncation toward zero *)
let ntrunc a = nmk true (Float.trunc a.nlo) (Float.trunc a.nhi)

let nmeet a b =
  nmk (a.nint || b.nint) (Float.max a.nlo b.nlo) (Float.min a.nhi b.nhi)

let num_of_value v =
  let r = Value.to_real v in
  let nint = match v with Value.Int _ | Value.Bool _ -> true | _ -> false in
  { nlo = r; nhi = r; nint }

(* --- boolean three-valued helpers ------------------------------------ *)

type bool3 = { bt : bool; bf : bool }  (* can be true / can be false *)

let b3_top = { bt = true; bf = true }
let b3_true = { bt = true; bf = false }
let b3_false = { bt = false; bf = true }

let b3_of_dom = function
  | Dom.Dbool { can_true; can_false } -> { bt = can_true; bf = can_false }
  | Dom.Dint { lo; hi } ->
    (* ints coerce to bool as (<> 0) *)
    { bt = not (lo = 0 && hi = 0); bf = lo <= 0 && 0 <= hi }
  | Dom.Dreal { lo; hi } ->
    { bt = not (lo = 0.0 && hi = 0.0); bf = lo <= 0.0 && 0.0 <= hi }

let dom_of_b3 { bt; bf } =
  if not (bt || bf) then raise Dom.Empty;
  Dom.Dbool { can_true = bt; can_false = bf }

let b3_and a b = { bt = a.bt && b.bt; bf = a.bf || b.bf }
let b3_or a b = { bt = a.bt || b.bt; bf = a.bf && b.bf }
let b3_not a = { bt = a.bf; bf = a.bt }

let b3_meet a b =
  let r = { bt = a.bt && b.bt; bf = a.bf && b.bf } in
  if not (r.bt || r.bf) then raise Dom.Empty;
  r

let b3_join a b = { bt = a.bt || b.bt; bf = a.bf || b.bf }
