module Value = Slim.Value

type t =
  | Dbool of { can_true : bool; can_false : bool }
  | Dint of { lo : int; hi : int }
  | Dreal of { lo : float; hi : float }

exception Empty

(* The three non-empty boolean domains, shared: every boolean result
   is one of them, so building one allocates nothing. *)
let top_bool = Dbool { can_true = true; can_false = true }
let bool_true = Dbool { can_true = true; can_false = false }
let bool_false = Dbool { can_true = false; can_false = true }
let[@inline] booln b = if b then bool_true else bool_false

let[@inline] bool_of can_true can_false =
  if can_true then if can_false then top_bool else bool_true
  else if can_false then bool_false
  else Dbool { can_true; can_false }

let of_ty = function
  | Value.Tbool -> top_bool
  | Value.Tint { lo; hi } -> Dint { lo; hi }
  | Value.Treal { lo; hi } -> Dreal { lo; hi }
  | Value.Tvec _ -> Value.type_error "Dom.of_ty: vector type"

let[@inline] intn lo hi =
  if lo > hi then raise Empty;
  Dint { lo; hi }

(* float -> int bound conversions must saturate: [int_of_float] is
   unspecified past [max_int] and in practice wraps (8e18 becomes a
   large NEGATIVE int), which can turn a huge over-approximated bound
   into an inverted — empty — interval and produce an unsound Unsat.
   1e18 is exactly representable and far above any model constant. *)
let int_bound_max = 1_000_000_000_000_000_000

let[@inline] int_of_float_up f =
  if f >= 1e18 then int_bound_max
  else if f <= -1e18 then -int_bound_max
  else int_of_float (Float.ceil f)

let[@inline] int_of_float_down f =
  if f >= 1e18 then int_bound_max
  else if f <= -1e18 then -int_bound_max
  else int_of_float (Float.floor f)

let[@inline] realn lo hi =
  if lo > hi then raise Empty;
  Dreal { lo; hi }

let is_singleton = function
  | Dbool { can_true; can_false } -> can_true <> can_false
  | Dint { lo; hi } -> lo = hi
  | Dreal { lo; hi } -> lo = hi

let singleton_value = function
  | Dbool { can_true = true; can_false = false } -> Some (Value.Bool true)
  | Dbool { can_true = false; can_false = true } -> Some (Value.Bool false)
  | Dint { lo; hi } when lo = hi -> Some (Value.Int lo)
  | Dreal { lo; hi } when lo = hi -> Some (Value.Real lo)
  | Dbool _ | Dint _ | Dreal _ -> None

let member d v =
  match d, v with
  | Dbool { can_true; can_false }, Value.Bool b ->
    if b then can_true else can_false
  | Dint { lo; hi }, Value.Int i -> lo <= i && i <= hi
  | Dreal { lo; hi }, Value.Real r -> lo <= r && r <= hi
  | Dreal { lo; hi }, Value.Int i ->
    lo <= float_of_int i && float_of_int i <= hi
  | Dint { lo; hi }, Value.Real r ->
    Float.is_integer r && float_of_int lo <= r && r <= float_of_int hi
  | (Dbool _ | Dint _ | Dreal _), _ -> false

let meet a b =
  match a, b with
  | Dbool x, Dbool y ->
    let can_true = x.can_true && y.can_true in
    let can_false = x.can_false && y.can_false in
    if not (can_true || can_false) then raise Empty;
    bool_of can_true can_false
  | Dint x, Dint y -> intn (max x.lo y.lo) (min x.hi y.hi)
  | Dreal x, Dreal y -> realn (Float.max x.lo y.lo) (Float.min x.hi y.hi)
  | Dint x, Dreal y | Dreal y, Dint x ->
    intn
      (max x.lo (int_of_float_up y.lo))
      (min x.hi (int_of_float_down y.hi))
  | (Dbool _ | Dint _ | Dreal _), (Dbool _ | Dint _ | Dreal _) ->
    Value.type_error "Dom.meet: incompatible domains"

let hull a b =
  match a, b with
  | Dbool x, Dbool y ->
    bool_of (x.can_true || y.can_true) (x.can_false || y.can_false)
  | Dint x, Dint y -> Dint { lo = min x.lo y.lo; hi = max x.hi y.hi }
  | Dreal x, Dreal y ->
    Dreal { lo = Float.min x.lo y.lo; hi = Float.max x.hi y.hi }
  | Dint x, Dreal y | Dreal y, Dint x ->
    Dreal
      { lo = Float.min (float_of_int x.lo) y.lo;
        hi = Float.max (float_of_int x.hi) y.hi }
  | (Dbool _ | Dint _ | Dreal _), (Dbool _ | Dint _ | Dreal _) ->
    Value.type_error "Dom.hull: incompatible domains"

let[@inline] width = function
  | Dbool { can_true; can_false } -> if can_true && can_false then 1.0 else 0.0
  | Dint { lo; hi } ->
    (* [hi - lo] wraps past [max_int]: a full-range domain would read
       as negative width and never be split *)
    let w = hi - lo in
    if w >= 0 then float_of_int w else float_of_int hi -. float_of_int lo
  | Dreal { lo; hi } -> hi -. lo

let real_width_floor = 1e-6

(* The midpoint of an int interval: the historical formula while
   [hi - lo] does not overflow, else the sum of the halved bounds, which
   lies in [lo, hi) because then [lo < 0 < hi]. *)
let int_mid lo hi =
  let w = hi - lo in
  if w >= 0 then lo + (w / 2) else (lo asr 1) + (hi asr 1)

(* The midpoint of a real interval.  While [hi -. lo] is finite this
   is the historical formula, bit for bit.  A width that overflows
   means [lo < 0 < hi] or an infinite bound: halving each bound first
   cannot overflow, and an infinite side is cut at a finite point.  The
   result is clamped into [lo, hi], so a child is never inverted or
   outside its parent. *)
let real_mid lo hi =
  let w = hi -. lo in
  if Float.is_finite w then lo +. (w /. 2.0)
  else
    let mid =
      if Float.is_finite lo && Float.is_finite hi then (lo /. 2.0) +. (hi /. 2.0)
      else if lo = neg_infinity then
        Float.max (-.max_float) (Float.min 0.0 ((2.0 *. hi) -. 1.0))
      else Float.min max_float (Float.max 0.0 ((2.0 *. lo) +. 1.0))
    in
    Float.min hi (Float.max lo mid)

let[@inline] splittable = function
  | Dbool { can_true; can_false } -> can_true && can_false
  | Dint { lo; hi } -> lo < hi
  | Dreal { lo; hi } -> hi -. lo > real_width_floor

(* The halves of a [splittable] domain. *)
let lower = function
  | Dbool _ -> bool_true
  | Dint { lo; hi } -> Dint { lo; hi = int_mid lo hi }
  | Dreal { lo; hi } -> Dreal { lo; hi = real_mid lo hi }

let upper = function
  | Dbool _ -> bool_false
  | Dint { lo; hi } -> Dint { lo = int_mid lo hi + 1; hi }
  | Dreal { lo; hi } -> Dreal { lo = real_mid lo hi; hi }

let split d = if splittable d then Some (lower d, upper d) else None

(* Widths stay in this module: a float crossing a module boundary is
   boxed. *)
let widest doms slots =
  let best = ref (-1) and best_w = ref 0.0 in
  for i = 0 to Array.length slots - 1 do
    let d = doms.(slots.(i)) in
    let w = width d in
    if w > 0.0 && (!best < 0 || !best_w < w) && splittable d then begin
      best := i;
      best_w := w
    end
  done;
  !best

let sample = function
  | Dbool { can_true; can_false } ->
    (if can_true then [ Value.Bool true ] else [])
    @ (if can_false then [ Value.Bool false ] else [])
  | Dint { lo; hi } ->
    let mid = int_mid lo hi in
    let candidates =
      [ Value.Int lo; Value.Int hi; Value.Int mid ]
      @ (if lo <= 0 && 0 <= hi then [ Value.Int 0 ] else [])
      @ (if lo <= 1 && 1 <= hi then [ Value.Int 1 ] else [])
    in
    List.sort_uniq compare candidates
  | Dreal { lo; hi } ->
    let mid = real_mid lo hi in
    let candidates =
      [ Value.Real lo; Value.Real hi; Value.Real mid ]
      @ (if lo <= 0.0 && 0.0 <= hi then [ Value.Real 0.0 ] else [])
      @ (if lo <= 1.0 && 1.0 <= hi then [ Value.Real 1.0 ] else [])
    in
    List.sort_uniq compare candidates

let pp ppf = function
  | Dbool { can_true; can_false } ->
    Fmt.pf ppf "bool{%s%s}"
      (if can_true then "T" else "")
      (if can_false then "F" else "")
  | Dint { lo; hi } -> Fmt.pf ppf "[%d,%d]" lo hi
  | Dreal { lo; hi } -> Fmt.pf ppf "[%g,%g]" lo hi

(* Polymorphic [=] without the generic walk: floats compare with float
   [=] ([nan] differs from itself, [-0.] equals [0.]). *)
let equal a b =
  match a, b with
  | Dbool x, Dbool y -> x.can_true = y.can_true && x.can_false = y.can_false
  | Dint x, Dint y -> x.lo = y.lo && x.hi = y.hi
  | Dreal x, Dreal y -> (x.lo : float) = y.lo && (x.hi : float) = y.hi
  | (Dbool _ | Dint _ | Dreal _), _ -> false
