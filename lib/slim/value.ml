type t =
  | Bool of bool
  | Int of int
  | Real of float
  | Vec of t array

type ty =
  | Tbool
  | Tint of { lo : int; hi : int }
  | Treal of { lo : float; hi : float }
  | Tvec of ty * int

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let tint = Tint { lo = -1_000_000; hi = 1_000_000 }
let treal = Treal { lo = -1e6; hi = 1e6 }

let tint_range lo hi =
  if lo > hi then type_error "tint_range: empty domain [%d,%d]" lo hi;
  Tint { lo; hi }

let treal_range lo hi =
  if lo > hi then type_error "treal_range: empty domain [%g,%g]" lo hi;
  Treal { lo; hi }

let rec default_of_ty = function
  | Tbool -> Bool false
  | Tint { lo; hi } -> Int (if lo <= 0 && 0 <= hi then 0 else lo)
  | Treal { lo; hi } -> Real (if lo <= 0.0 && 0.0 <= hi then 0.0 else lo)
  | Tvec (ty, n) -> Vec (Array.init n (fun _ -> default_of_ty ty))

let rec member ty v =
  match ty, v with
  | Tbool, Bool _ -> true
  | Tint { lo; hi }, Int i -> lo <= i && i <= hi
  | Treal { lo; hi }, Real r -> lo <= r && r <= hi
  | Tvec (ety, n), Vec a ->
    Array.length a = n && Array.for_all (member ety) a
  | (Tbool | Tint _ | Treal _ | Tvec _), (Bool _ | Int _ | Real _ | Vec _) ->
    false

let rec ty_compatible a b =
  match a, b with
  | Tbool, Tbool -> true
  | Tint _, Tint _ -> true
  | Treal _, Treal _ -> true
  | Tvec (ea, na), Tvec (eb, nb) -> na = nb && ty_compatible ea eb
  | (Tbool | Tint _ | Treal _ | Tvec _), (Tbool | Tint _ | Treal _ | Tvec _)
    ->
    false

let rec pp_ty ppf = function
  | Tbool -> Fmt.string ppf "bool"
  | Tint { lo; hi } -> Fmt.pf ppf "int[%d,%d]" lo hi
  | Treal { lo; hi } -> Fmt.pf ppf "real[%g,%g]" lo hi
  | Tvec (ty, n) -> Fmt.pf ppf "%a[%d]" pp_ty ty n

let to_bool = function
  | Bool b -> b
  | Int i -> i <> 0
  | Real r -> r <> 0.0
  | Vec _ -> type_error "to_bool: vector"

let to_int = function
  | Bool b -> if b then 1 else 0
  | Int i -> i
  | Real r -> int_of_float (Float.trunc r)
  | Vec _ -> type_error "to_int: vector"

let to_real = function
  | Bool b -> if b then 1.0 else 0.0
  | Int i -> float_of_int i
  | Real r -> r
  | Vec _ -> type_error "to_real: vector"

let to_vec = function
  | Vec a -> a
  | (Bool _ | Int _ | Real _) as v ->
    type_error "to_vec: scalar %s" (match v with
      | Bool _ -> "bool" | Int _ -> "int" | Real _ -> "real" | Vec _ -> ".")

let rec copy = function
  | (Bool _ | Int _ | Real _) as v -> v
  | Vec a -> Vec (Array.map copy a)

(* Shared boxes for the small integers that counters, modes and
   indices take, so most integer results allocate nothing.  Values are
   immutable apart from [Vec] payloads, so sharing a scalar is
   unobservable. *)
let small_lo = -256
let small_ints = Array.init (1024 - small_lo) (fun i -> Int (i + small_lo))

let[@inline] int n =
  let i = n - small_lo in
  if i >= 0 && i < Array.length small_ints then Array.unsafe_get small_ints i
  else Int n

let rec equal a b =
  match a, b with
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Real x, Real y -> Float.equal x y
  | Int x, Real y | Real y, Int x -> Float.equal (float_of_int x) y
  | Vec x, Vec y -> Array.length x = Array.length y && equal_from x y 0
  | (Bool _ | Int _ | Real _ | Vec _), (Bool _ | Int _ | Real _ | Vec _) ->
    false

and equal_from x y i =
  i >= Array.length x
  || (equal (Array.unsafe_get x i) (Array.unsafe_get y i) && equal_from x y (i + 1))

let compare_num a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Real x, Real y -> Float.compare x y
  | Int x, Real y -> Float.compare (float_of_int x) y
  | Real x, Int y -> Float.compare x (float_of_int y)
  | (Int _ | Real _ | Bool _), (Int _ | Real _ | Bool _) ->
    Float.compare (to_real a) (to_real b)
  | Vec _, _ | _, Vec _ -> type_error "compare_num: vector"

(* Arithmetic follows Simulink double/int promotion: any real operand makes
   the result real; booleans behave as 0/1.  Each operation is written out
   per operand shape, so a real result boxes its float once and an integer
   result in [int]'s range allocates nothing. *)
let vector_operand name = type_error "%s: vector operand" name

let add a b =
  match a, b with
  | Int x, Int y -> int (x + y)
  | Real x, Real y -> Real (x +. y)
  | Int x, Real y -> Real (float_of_int x +. y)
  | Real x, Int y -> Real (x +. float_of_int y)
  | (Int _ | Real _ | Bool _), (Int _ | Real _ | Bool _) ->
    Real (to_real a +. to_real b)
  | Vec _, _ | _, Vec _ -> vector_operand "add"

let sub a b =
  match a, b with
  | Int x, Int y -> int (x - y)
  | Real x, Real y -> Real (x -. y)
  | Int x, Real y -> Real (float_of_int x -. y)
  | Real x, Int y -> Real (x -. float_of_int y)
  | (Int _ | Real _ | Bool _), (Int _ | Real _ | Bool _) ->
    Real (to_real a -. to_real b)
  | Vec _, _ | _, Vec _ -> vector_operand "sub"

let mul a b =
  match a, b with
  | Int x, Int y -> int (x * y)
  | Real x, Real y -> Real (x *. y)
  | Int x, Real y -> Real (float_of_int x *. y)
  | Real x, Int y -> Real (x *. float_of_int y)
  | (Int _ | Real _ | Bool _), (Int _ | Real _ | Bool _) ->
    Real (to_real a *. to_real b)
  | Vec _, _ | _, Vec _ -> vector_operand "mul"

let div a b =
  match a, b with
  | Int _, Int 0 -> type_error "div: integer division by zero"
  | Int x, Int y -> int (x / y)
  | (Int _ | Real _ | Bool _), (Int _ | Real _ | Bool _) ->
    let d = to_real b in
    if d = 0.0 then type_error "div: real division by zero"
    else Real (to_real a /. d)
  | Vec _, _ | _, Vec _ -> vector_operand "div"

let modulo a b =
  match a, b with
  | Int _, Int 0 -> type_error "mod: modulo by zero"
  | Int x, Int y ->
    (* Euclidean-style: result has the sign of the divisor, like MATLAB. *)
    let r = x mod y in
    int (if (r < 0 && y > 0) || (r > 0 && y < 0) then r + y else r)
  | (Int _ | Real _ | Bool _), (Int _ | Real _ | Bool _) ->
    let x = to_real a and y = to_real b in
    if y = 0.0 then type_error "mod: modulo by zero"
    else
      let r = Float.rem x y in
      Real (if (r < 0.0 && y > 0.0) || (r > 0.0 && y < 0.0) then r +. y else r)
  | Vec _, _ | _, Vec _ -> vector_operand "mod"

(* An integer minimum or maximum is one of the operands, returned as it is. *)
let min_v a b =
  match a, b with
  | Int x, Int y -> if x <= y then a else b
  | Real x, Real y -> Real (Float.min x y)
  | (Int _ | Real _ | Bool _), (Int _ | Real _ | Bool _) ->
    Real (Float.min (to_real a) (to_real b))
  | Vec _, _ | _, Vec _ -> vector_operand "min"

let max_v a b =
  match a, b with
  | Int x, Int y -> if x >= y then a else b
  | Real x, Real y -> Real (Float.max x y)
  | (Int _ | Real _ | Bool _), (Int _ | Real _ | Bool _) ->
    Real (Float.max (to_real a) (to_real b))
  | Vec _, _ | _, Vec _ -> vector_operand "max"

let neg = function
  | Int x -> int (-x)
  | Real r -> Real (-.r)
  | Bool _ -> type_error "neg: bool operand"
  | Vec _ -> type_error "neg: vector operand"

let abs_v = function
  | Int x -> int (abs x)
  | Real r -> Real (Float.abs r)
  | Bool _ -> type_error "abs: bool operand"
  | Vec _ -> type_error "abs: vector operand"

let floor_v = function
  | Int _ as v -> v
  | Real r -> Real (Float.floor r)
  | Bool _ -> type_error "floor: bool operand"
  | Vec _ -> type_error "floor: vector operand"

let ceil_v = function
  | Int _ as v -> v
  | Real r -> Real (Float.ceil r)
  | Bool _ -> type_error "ceil: bool operand"
  | Vec _ -> type_error "ceil: vector operand"

let clamp ~lo ~hi v =
  match v with
  | Int x ->
    let flo = int_of_float (Float.ceil lo)
    and fhi = int_of_float (Float.floor hi) in
    int (Stdlib.min fhi (Stdlib.max flo x))
  | Real r -> Real (Float.min hi (Float.max lo r))
  | Bool _ -> type_error "clamp: bool operand"
  | Vec _ -> type_error "clamp: vector operand"

let rec pp ppf = function
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Real r -> Fmt.pf ppf "%g" r
  | Vec a -> Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any "; ") pp) a

let to_string v = Fmt.str "%a" pp v

let of_string ty s =
  let s = String.trim s in
  let rec parse ty s =
    match ty with
    | Tbool ->
      (match s with
       | "true" | "1" -> Bool true
       | "false" | "0" -> Bool false
       | _ -> type_error "of_string: bad bool %S" s)
    | Tint _ ->
      (match int_of_string_opt s with
       | Some i -> Int i
       | None -> type_error "of_string: bad int %S" s)
    | Treal _ ->
      (match float_of_string_opt s with
       | Some r -> Real r
       | None -> type_error "of_string: bad real %S" s)
    | Tvec (ety, n) ->
      let len = String.length s in
      if len < 2 || s.[0] <> '[' || s.[len - 1] <> ']' then
        type_error "of_string: bad vector %S" s;
      let inner = String.sub s 1 (len - 2) in
      (* Split on top-level ';' only: nested vectors carry brackets. *)
      let parts =
        if String.trim inner = "" then []
        else begin
          let parts = ref [] in
          let depth = ref 0 in
          let start = ref 0 in
          String.iteri
            (fun i c ->
              match c with
              | '[' -> incr depth
              | ']' -> decr depth
              | ';' when !depth = 0 ->
                parts := String.sub inner !start (i - !start) :: !parts;
                start := i + 1
              | _ -> ())
            inner;
          parts := String.sub inner !start (String.length inner - !start) :: !parts;
          List.rev !parts
        end
      in
      if List.length parts <> n then
        type_error "of_string: vector %S has %d elements, expected %d" s
          (List.length parts) n;
      Vec (Array.of_list (List.map (fun p -> parse ety (String.trim p)) parts))
  in
  parse ty s

(* [Random.State.full_int] draws exactly as [Random.State.int] does
   below 2^30, so narrow ranges keep their historical draws; wider ones
   no longer raise.  When [hi - lo + 1] overflows the range holds more
   than half of all ints, so rejection sampling ends after two draws on
   average. *)
let random_int rng lo hi =
  if lo > hi then invalid_arg "Value.random_int: empty range";
  let span = hi - lo in
  if span >= 0 && span < max_int then lo + Random.State.full_int rng (span + 1)
  else begin
    let r = ref (Int64.to_int (Random.State.bits64 rng)) in
    while !r < lo || !r > hi do
      r := Int64.to_int (Random.State.bits64 rng)
    done;
    !r
  end

(* The historical draw while [hi -. lo] is finite.  An overflowing
   width is drawn as a convex combination of the bounds, clamped into
   [lo, hi]; infinite bounds that make it [nan] fall back to the point
   of [lo, hi] nearest 0. *)
let random_real rng lo hi =
  let w = hi -. lo in
  if Float.is_finite w then lo +. Random.State.float rng w
  else begin
    let u = Random.State.float rng 1.0 in
    let x = (lo *. (1.0 -. u)) +. (hi *. u) in
    let x = if Float.is_nan x then 0.0 else x in
    Float.min hi (Float.max lo x)
  end

let rec random rng = function
  | Tbool -> Bool (Random.State.bool rng)
  | Tint { lo; hi } -> int (random_int rng lo hi)
  | Treal { lo; hi } -> Real (random_real rng lo hi)
  | Tvec (ty, n) -> Vec (Array.init n (fun _ -> random rng ty))
