(** The JSON codec behind every JSON document the project reads or
    writes: shard partials, the fuzz regression corpus, corpus-campaign
    result files, telemetry summaries, Chrome traces and [lint --json].

    Floats round-trip exactly: {!to_string} prints the shortest of
    [%.15g], [%.16g] and [%.17g] that reads back to the same bits, and
    {!of_string} reads number tokens with [float_of_string], so a value
    written and read again is bit-identical. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string  (** raw bytes; [\u] escapes are decoded to UTF-8 *)
  | List of t list
  | Obj of (string * t) list  (** fields in document order *)

val to_string : t -> string
(** One line, with a comma and a space between items and a colon and a
    space after keys; empty containers print as [[]] and [{}].  Strings
    escape the double quote, backslash, newline, carriage return and
    tab; other bytes below 0x20 print as a six-character [u00XX]
    escape; every other byte prints raw.  A float whose shortest text
    has only digits and [-] gets [.0] appended, so it reads back as
    [Float].  Raises [Invalid_argument] on a nan or infinite float. *)

val of_string : string -> (t, string) result
(** Strict RFC 8259 parse of one document.  An integer token that fits
    in an [int] becomes [Int]; any other number becomes [Float].
    Rejects trailing garbage, leading zeros, [NaN], [Infinity], numbers
    beyond the float range, raw control bytes in strings and lone
    surrogates.  [Error] names the
    byte offset of the defect. *)

(** {1 Typed accessors}

    Each takes the key naming the value, used only in the error
    message. *)

exception Type_error of string
(** Raised by every accessor; the message names the key. *)

val member : string -> t -> t
(** [member key obj] is the first field [key] of object [obj]. *)

val int : string -> t -> int

val float : string -> t -> float
(** Also accepts [Int]: files written by older versions print a float
    such as 3600.0 as [3600]. *)

val string : string -> t -> string
val list : string -> t -> t list
