(** Parser of the [.stcg] textual model format.

    Structural inverse of {!Printer}: for any source [m],
    [parse_string (Printer.print m) = Ok m'] with [m'] semantically
    identical to [m], and parsing canonical text is byte-idempotent
    under re-printing.

    Diagnostics carry a stable code ({!Syntax.error}, [T001]–[T900]),
    a 1-based line/column position, and a message.  [parse_string]
    never raises: lexer/reader/shape errors and the final semantic
    validation (T301 invalid diagram, T302 invalid chart, T303
    ill-typed program) are all returned as [Error _]; any unexpected
    exception is reported as [T900]. *)

val parse_string : string -> (Source.t, Syntax.error) result
(** Exactly one source form; any trailing form is a [T106]. *)

val parse_file : string -> (Source.t, Syntax.error) result
(** Read a file and parse it.  Unreadable files report [T101] at 1:1. *)
