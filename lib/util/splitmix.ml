(* SplitMix64: a 64-bit Weyl sequence hashed through a MurmurHash3-style
   finalizer.  [split] seeds the child from the parent's next output
   mixed with a second finalizer so the two streams are uncorrelated. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* variant finalizer (mix13 constants) used only by [split] *)
let mix64_variant z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33))
      0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33))
      0xC4CEB9FE1A85EC53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = mix64_variant (bits64 t) }

let copy t = { state = t.state }

(* mix two seeds into one: job [i] of campaign seed [s] draws from an
   independent stream for any job count *)
let mix_seed a b =
  Int64.to_int (mix64 (Int64.add (mix64 (Int64.of_int a)) (Int64.of_int b)))

(* top 62 bits as a non-negative OCaml int *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound <= 0";
  (* rejection sampling to keep the draw exactly uniform *)
  let max = (1 lsl 62) - 1 in
  let limit = max - (((max mod bound) + 1) mod bound) in
  let rec go () =
    let v = bits62 t in
    if v <= limit then v mod bound else go ()
  in
  go ()

let int_in t lo hi =
  if lo > hi then invalid_arg "Splitmix.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (bits64 t) 1L = 1L

let float t x =
  (* 53 random mantissa bits, like the stdlib *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int v /. 9007199254740992.0 *. x

let float_in t lo hi = if hi <= lo then lo else lo +. float t (hi -. lo)

let choose t = function
  | [] -> invalid_arg "Splitmix.choose: empty list"
  | l -> List.nth l (int t (List.length l))

let weighted t weights =
  let total = List.fold_left (fun acc (w, _) -> acc + max 0 w) 0 weights in
  if total <= 0 then invalid_arg "Splitmix.weighted: non-positive total";
  let k = int t total in
  let rec go k = function
    | [] -> invalid_arg "Splitmix.weighted: impossible"
    | (w, x) :: rest -> if k < max 0 w then x else go (k - max 0 w) rest
  in
  go k weights
