(** Canonical printer of the [.stcg] textual model format.

    The layout is a pure function of the AST (fixed two-space
    indentation, one structural child per line, leaf forms inline), so
    [print] is byte-deterministic and [print (parse s)] is byte-stable
    for canonical [s].  Floats print with [%.17g] and round-trip every
    IEEE double exactly. *)

exception Print_error of string
(** Raised on sources the format cannot express faithfully (a variable
    whose recorded scope contradicts its declaration section). *)

val print : Source.t -> string
(** Render a source as canonical [.stcg] text ({!Parser.parse_string}
    inverts it structurally). *)

(** {1 Leaf-form printers} (single-line, shared with diagnostics) *)

val value_str : Slim.Value.t -> string
val ty_str : Slim.Value.ty -> string
val expr_str : Slim.Ir.expr -> string
