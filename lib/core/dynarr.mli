(** A minimal growable array (amortized O(1) append, O(1) indexing).

    OCaml 5.1's stdlib has no [Dynarray] yet (it lands in 5.2); the
    engine needs one so the solved-input library can be sampled by
    index instead of [List.nth] — which made every random step O(n²)
    in the number of solved inputs. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val push : 'a t -> 'a -> unit
(** Append at index [length t] (doubling growth). *)

val get : 'a t -> int -> 'a
(** O(1); raises [Invalid_argument] out of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** O(1); raises [Invalid_argument] out of bounds. *)
