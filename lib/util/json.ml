type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ------------------------------------------------------------ *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let float_text f =
  if not (Float.is_finite f) then
    invalid_arg (Printf.sprintf "Json.to_string: non-finite float %h" f);
  let exact p =
    let s = Printf.sprintf "%.*g" p f in
    if same_bits (float_of_string s) f then Some s else None
  in
  let s =
    match exact 15 with
    | Some s -> s
    | None -> (
      match exact 16 with Some s -> s | None -> Printf.sprintf "%.17g" f)
  in
  if String.for_all (function '0' .. '9' | '-' -> true | _ -> false) s then
    s ^ ".0"
  else s

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let to_string v =
  let b = Buffer.create 256 in
  let items open_ close add xs =
    Buffer.add_char b open_;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ", ";
        add x)
      xs;
    Buffer.add_char b close
  in
  let rec add = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_text f)
    | String s -> add_escaped b s
    | List xs -> items '[' ']' add xs
    | Obj fields ->
      items '{' '}'
        (fun (k, x) ->
          add_escaped b k;
          Buffer.add_string b ": ";
          add x)
        fields
  in
  add v;
  Buffer.contents b

(* --- parsing ------------------------------------------------------------- *)

exception Syntax of int * string

let add_utf8 b c =
  let byte x = Buffer.add_char b (Char.unsafe_chr x) in
  if c < 0x80 then byte c
  else if c < 0x800 then (
    byte (0xC0 lor (c lsr 6));
    byte (0x80 lor (c land 0x3F)))
  else if c < 0x10000 then (
    byte (0xE0 lor (c lsr 12));
    byte (0x80 lor ((c lsr 6) land 0x3F));
    byte (0x80 lor (c land 0x3F)))
  else (
    byte (0xF0 lor (c lsr 18));
    byte (0x80 lor ((c lsr 12) land 0x3F));
    byte (0x80 lor ((c lsr 6) land 0x3F));
    byte (0x80 lor (c land 0x3F)))

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Syntax (!pos, msg)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let at_end () = !pos >= n in
  let skip_ws () =
    while
      (not (at_end ()))
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if (not (at_end ())) && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      v)
    else fail "invalid literal"
  in
  let is_digit () = (not (at_end ())) && s.[!pos] >= '0' && s.[!pos] <= '9' in
  let digits () =
    if not (is_digit ()) then fail "expected a digit";
    while is_digit () do
      incr pos
    done
  in
  let number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    if peek () = '0' then (
      incr pos;
      if is_digit () then fail "leading zero")
    else digits ();
    let integral = ref true in
    if peek () = '.' then (
      integral := false;
      incr pos;
      digits ());
    if peek () = 'e' || peek () = 'E' then (
      integral := false;
      incr pos;
      if peek () = '+' || peek () = '-' then incr pos;
      digits ());
    let tok = String.sub s start (!pos - start) in
    match if !integral then int_of_string_opt tok else None with
    | Some i -> Int i
    | None ->
      let f = float_of_string tok in
      if Float.is_finite f then Float f
      else (
        pos := start;
        fail "number out of range")
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d;
      incr pos
    done;
    !v
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if at_end () then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if at_end () then fail "unterminated string";
        let c = s.[!pos] in
        incr pos;
        (match c with
         | '"' | '\\' | '/' -> Buffer.add_char b c
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
           let hi = hex4 () in
           if hi >= 0xDC00 && hi <= 0xDFFF then fail "lone low surrogate"
           else if hi >= 0xD800 && hi <= 0xDBFF then begin
             if not (peek () = '\\' && !pos + 1 < n && s.[!pos + 1] = 'u')
             then fail "lone high surrogate";
             pos := !pos + 2;
             let lo = hex4 () in
             if lo < 0xDC00 || lo > 0xDFFF then fail "lone high surrogate";
             add_utf8 b (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
           end
           else add_utf8 b hi
         | _ ->
           decr pos;
           fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let seq close item =
    incr pos;
    skip_ws ();
    if peek () = close then (
      incr pos;
      [])
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | ',' ->
          incr pos;
          go acc
        | c when c = close ->
          incr pos;
          List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> String (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ ->
      fail (if at_end () then "unexpected end of input" else "unexpected character")
  and arr () = List (seq ']' value)
  and obj () =
    Obj
      (seq '}' (fun () ->
           skip_ws ();
           let key = string_lit () in
           skip_ws ();
           expect ':';
           (key, value ())))
  in
  match
    let v = value () in
    skip_ws ();
    if not (at_end ()) then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Syntax (at, msg) -> Error (Printf.sprintf "%s at byte %d" msg at)

(* --- accessors ----------------------------------------------------------- *)

exception Type_error of string

let type_error key what =
  raise (Type_error (Printf.sprintf "field %S: expected %s" key what))

let member key = function
  | Obj fields -> (
    match List.assoc_opt key fields with
    | Some v -> v
    | None -> raise (Type_error (Printf.sprintf "missing field %S" key)))
  | _ ->
    raise (Type_error (Printf.sprintf "expected an object with field %S" key))

let int key = function Int i -> i | _ -> type_error key "an integer"

let float key = function
  | Float f -> f
  | Int i -> Stdlib.float_of_int i
  | _ -> type_error key "a number"

let string key = function String s -> s | _ -> type_error key "a string"
let list key = function List l -> l | _ -> type_error key "an array"
