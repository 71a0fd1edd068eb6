(* Lexical layer of the .stcg textual model format: a position-tracking
   s-expression reader with stable diagnostic codes.

   The surface syntax is a restricted s-expression language: lists,
   bare atoms (keywords, numbers, operators) and double-quoted strings
   (names).  Comments run from ';' to end of line.  Every node carries
   the 1-based line/column of its first character, so the structural
   parser ({!Parser}) can point diagnostics at the offending form. *)

type pos = { line : int; col : int }

type error = { code : string; pos : pos; msg : string }

exception Error of error

(* Diagnostic codes are stable API, like the linter's A-codes:
     T0xx  lexical      T001 illegal character, T002 unterminated
                        string, T003 bad escape
     T1xx  syntactic    T101 unexpected token, T102 unexpected end of
                        input (unclosed form), T103 expected atom or
                        string, T104 bad integer, T105 bad number,
                        T106 malformed top level
     T2xx  structural   T201 unknown form or keyword, T202 wrong form
                        shape or arity, T203 duplicate block id
     T3xx  semantic     T301 invalid model, T302 invalid chart,
                        T303 ill-typed program
     T900  internal     unexpected exception, reported not raised *)

let err ~code ~pos fmt =
  Format.kasprintf (fun msg -> raise (Error { code; pos; msg })) fmt

let error_to_string ?file e =
  let prefix = match file with Some f -> f ^ ":" | None -> "" in
  Printf.sprintf "%s%d:%d: [%s] %s" prefix e.pos.line e.pos.col e.code e.msg

type sexp =
  | Atom of pos * string
  | Str of pos * string
  | List of pos * sexp list

let pos_of = function Atom (p, _) | Str (p, _) | List (p, _) -> p

(* --- string escaping ---------------------------------------------------- *)

(* Printable ASCII minus '"' and '\\' passes through; everything else
   uses the OCaml-style escapes the reader understands, so any byte
   sequence survives a round trip. *)
let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 32 || Char.code c > 126 ->
        Buffer.add_string buf (Printf.sprintf "\\%03d" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* --- reader ------------------------------------------------------------- *)

type reader = {
  src : string;
  mutable idx : int;
  mutable line : int;
  mutable col : int;
}

let reader src = { src; idx = 0; line = 1; col = 1 }
let at_end r = r.idx >= String.length r.src
let peek r = r.src.[r.idx]
let rpos r = { line = r.line; col = r.col }

let advance r =
  (if r.src.[r.idx] = '\n' then begin
     r.line <- r.line + 1;
     r.col <- 1
   end
   else r.col <- r.col + 1);
  r.idx <- r.idx + 1

let is_atom_char = function
  | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> false
  | _ -> true

let rec skip_blanks r =
  if at_end r then ()
  else
    match peek r with
    | ' ' | '\t' | '\n' | '\r' ->
      advance r;
      skip_blanks r
    | ';' ->
      while (not (at_end r)) && peek r <> '\n' do
        advance r
      done;
      skip_blanks r
    | _ -> ()

let read_string_body r =
  let start = rpos r in
  advance r (* opening quote *);
  let buf = Buffer.create 16 in
  let rec loop () =
    if at_end r then err ~code:"T002" ~pos:start "unterminated string"
    else
      match peek r with
      | '"' ->
        advance r;
        Buffer.contents buf
      | '\\' ->
        let epos = rpos r in
        advance r;
        if at_end r then err ~code:"T003" ~pos:epos "truncated escape"
        else begin
          (match peek r with
           | '"' -> Buffer.add_char buf '"'; advance r
           | '\\' -> Buffer.add_char buf '\\'; advance r
           | 'n' -> Buffer.add_char buf '\n'; advance r
           | 't' -> Buffer.add_char buf '\t'; advance r
           | 'r' -> Buffer.add_char buf '\r'; advance r
           | '0' .. '9' ->
             let digit () =
               if at_end r then err ~code:"T003" ~pos:epos "truncated escape"
               else
                 match peek r with
                 | '0' .. '9' as c ->
                   advance r;
                   Char.code c - Char.code '0'
                 | c -> err ~code:"T003" ~pos:epos "bad escape digit %C" c
             in
             let n = (100 * digit ()) + (10 * digit ()) + digit () in
             if n > 255 then err ~code:"T003" ~pos:epos "escape \\%d out of range" n;
             Buffer.add_char buf (Char.chr n)
           | c -> err ~code:"T003" ~pos:epos "unknown escape \\%c" c);
          loop ()
        end
      | '\n' -> err ~code:"T002" ~pos:start "unterminated string"
      | c ->
        Buffer.add_char buf c;
        advance r;
        loop ()
  in
  loop ()

let rec read_sexp r =
  skip_blanks r;
  if at_end r then err ~code:"T102" ~pos:(rpos r) "unexpected end of input"
  else
    let pos = rpos r in
    match peek r with
    | '(' ->
      advance r;
      let items = ref [] in
      let rec items_loop () =
        skip_blanks r;
        if at_end r then
          err ~code:"T102" ~pos "unclosed '(' (unexpected end of input)"
        else if peek r = ')' then advance r
        else begin
          items := read_sexp r :: !items;
          items_loop ()
        end
      in
      items_loop ();
      List (pos, List.rev !items)
    | ')' -> err ~code:"T101" ~pos "unexpected ')'"
    | '"' -> Str (pos, read_string_body r)
    | c when is_atom_char c ->
      let start = r.idx in
      while (not (at_end r)) && is_atom_char (peek r) do
        advance r
      done;
      Atom (pos, String.sub r.src start (r.idx - start))
    | c -> err ~code:"T001" ~pos "illegal character %C" c

(* [read_one s] reads exactly one toplevel form (plus trailing blanks /
   comments); anything after it is a T106. *)
let read_one s =
  let r = reader s in
  skip_blanks r;
  if at_end r then err ~code:"T106" ~pos:(rpos r) "empty input";
  let x = read_sexp r in
  skip_blanks r;
  if not (at_end r) then
    err ~code:"T106" ~pos:(rpos r) "trailing input after top-level form";
  x

(* --- typed accessors used by the structural parser ---------------------- *)

let as_list = function
  | List (p, items) -> (p, items)
  | x -> err ~code:"T101" ~pos:(pos_of x) "expected a parenthesized form"

let as_atom = function
  | Atom (p, a) -> (p, a)
  | x -> err ~code:"T103" ~pos:(pos_of x) "expected a keyword atom"

let as_str = function
  | Str (p, s) -> (p, s)
  | x -> err ~code:"T103" ~pos:(pos_of x) "expected a quoted name"

let as_int x =
  let p, a = as_atom x in
  match int_of_string_opt a with
  | Some n -> n
  | None -> err ~code:"T104" ~pos:p "bad integer literal %S" a

(* Floats accept everything %.17g can print, including inf and nan. *)
let as_float x =
  let p, a = as_atom x in
  match float_of_string_opt a with
  | Some f -> f
  | None -> err ~code:"T105" ~pos:p "bad number literal %S" a
