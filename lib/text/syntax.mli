(** Lexical layer of the [.stcg] textual model format.

    A restricted s-expression surface: lists, bare atoms and quoted
    strings, with [;] line comments.  Every node carries the 1-based
    line/column of its first character.

    Diagnostic codes are stable API (the parser's contract, like the
    linter's A-codes):

    - [T001] illegal character, [T002] unterminated string, [T003] bad
      escape;
    - [T101] unexpected token, [T102] unexpected end of input (unclosed
      form), [T103] expected atom/string, [T104] bad integer, [T105]
      bad number, [T106] malformed top level;
    - [T201] unknown form or keyword, [T202] wrong form shape or arity,
      [T203] duplicate block id;
    - [T301] invalid model, [T302] invalid chart, [T303] ill-typed
      program;
    - [T900] internal error (an unexpected exception, reported, never
      re-raised). *)

type pos = { line : int; col : int }

type error = { code : string; pos : pos; msg : string }

exception Error of error

val err : code:string -> pos:pos -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Error} with a formatted message. *)

val error_to_string : ?file:string -> error -> string
(** ["file:line:col: [CODE] message"]. *)

type sexp =
  | Atom of pos * string
  | Str of pos * string
  | List of pos * sexp list

val pos_of : sexp -> pos

val escape_string : string -> string
(** Escape a name for printing between double quotes; any byte sequence
    survives print → read. *)

val read_one : string -> sexp
(** Read exactly one toplevel form; trailing non-blank input is a
    [T106].  Raises {!Error}. *)

(** {1 Typed accessors} (raise {!Error} with the node's position) *)

val as_list : sexp -> pos * sexp list
val as_atom : sexp -> pos * string
val as_str : sexp -> pos * string
val as_int : sexp -> int
val as_float : sexp -> float
