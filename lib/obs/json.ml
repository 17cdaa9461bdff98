type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* Shortest decimal that round-trips; "%.17g" only when needed. A
   marker ('.' or exponent) is forced so integral floats print as
   "1.0", not "1" — otherwise parsing reads the type back as Int and
   print/parse is not the identity on floats. *)
let float_repr f =
  let s = Printf.sprintf "%.15g" f in
  let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

(* [string_of_int]'s digits without its format call or string. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf i =
  if i >= 0 then add_digits buf i
  else if i = min_int then Buffer.add_string buf (string_of_int i)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-i)
  end

let rec to_buf buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (float_repr f)
      else Buffer.add_string buf "null"
  | String s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buf buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf "\":";
          to_buf buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  to_buf buf t;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Pull lexer: a cursor over a span of a string. The tree reader
   ({!value}, {!of_string}) and the codecs' direct column readers both
   pull from it, so there is one grammar. Every reader skips the
   whitespace in front of its token. Errors raise [Parse] inside; only
   {!read} turns them into [Error].                                    *)

type cursor = { s : string; mutable pos : int; stop : int; start : int }

exception Parse of string

let fail c msg =
  raise (Parse (Printf.sprintf "%s at offset %d" msg (c.pos - c.start)))

(* The next byte; NUL at the end of the span, where no token matches. *)
let[@inline] peek c =
  if c.pos < c.stop then String.unsafe_get c.s c.pos else '\000'

let ws c =
  while
    c.pos < c.stop
    &&
    match String.unsafe_get c.s c.pos with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  if c.pos < c.stop && peek c = ch then c.pos <- c.pos + 1
  else fail c (Printf.sprintf "expected '%c'" ch)

let keyword c kw =
  let l = String.length kw in
  let rec matches i =
    i = l || (String.unsafe_get c.s (c.pos + i) = kw.[i] && matches (i + 1))
  in
  if c.pos + l <= c.stop && matches 0 then c.pos <- c.pos + l
  else fail c "invalid literal"

let escaped c buf =
  if c.pos >= c.stop then fail c "truncated escape";
  let e = c.s.[c.pos] in
  c.pos <- c.pos + 1;
  match e with
  | '"' -> Buffer.add_char buf '"'
  | '\\' -> Buffer.add_char buf '\\'
  | '/' -> Buffer.add_char buf '/'
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'n' -> Buffer.add_char buf '\n'
  | 'r' -> Buffer.add_char buf '\r'
  | 't' -> Buffer.add_char buf '\t'
  | 'u' -> (
      if c.pos + 4 > c.stop then fail c "truncated \\u escape";
      let hex = String.sub c.s c.pos 4 in
      c.pos <- c.pos + 4;
      match int_of_string_opt ("0x" ^ hex) with
      | Some code when Uchar.is_valid code ->
          Buffer.add_utf_8_uchar buf (Uchar.of_int code)
      | _ -> fail c "invalid \\u escape")
  | _ -> fail c "invalid escape"

(* A string without escapes, the common case, is a span of the input
   itself; only an escape makes a copy. *)
let string_span c =
  ws c;
  expect c '"';
  let first = c.pos in
  let i = ref first in
  while
    !i < c.stop
    && match String.unsafe_get c.s !i with '"' | '\\' -> false | _ -> true
  do
    incr i
  done;
  if !i < c.stop && c.s.[!i] = '"' then begin
    c.pos <- !i + 1;
    (c.s, first, !i - first)
  end
  else begin
    let buf = Buffer.create (max 16 (2 * (!i - first))) in
    Buffer.add_substring buf c.s first (!i - first);
    c.pos <- !i;
    let rec loop () =
      if c.pos >= c.stop then fail c "unterminated string";
      let ch = c.s.[c.pos] in
      c.pos <- c.pos + 1;
      if ch = '"' then
        let s = Buffer.contents buf in
        (s, 0, String.length s)
      else begin
        if ch = '\\' then escaped c buf else Buffer.add_char buf ch;
        loop ()
      end
    in
    loop ()
  end

let string c =
  let s, pos, len = string_span c in
  if pos = 0 && len = String.length s then s else String.sub s pos len

let[@inline] is_number_char = function
  | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
  | _ -> false

(* A plain "-?[0-9]{1,18}" token, nearly every int, read without
   allocating. Any other token is left unread and gives [min_int],
   which no such token can spell. *)
let plain_int c =
  let start = c.pos in
  let neg = peek c = '-' in
  if neg then c.pos <- c.pos + 1;
  let acc = ref 0 and digits = ref 0 in
  while
    c.pos < c.stop
    && match String.unsafe_get c.s c.pos with '0' .. '9' -> true | _ -> false
  do
    acc := (!acc * 10) + (Char.code (String.unsafe_get c.s c.pos) - 48);
    incr digits;
    c.pos <- c.pos + 1
  done;
  if
    !digits > 0 && !digits <= 18
    && not (c.pos < c.stop && is_number_char (String.unsafe_get c.s c.pos))
  then if neg then - !acc else !acc
  else begin
    c.pos <- start;
    min_int
  end

(* A number token: the longest run of number characters. Without '.',
   'e' or 'E' it is an [Int] if it fits, else a [Float]. *)
let number c =
  ws c;
  let i = plain_int c in
  if i <> min_int then Int i
  else begin
    let start = c.pos in
    while c.pos < c.stop && is_number_char (String.unsafe_get c.s c.pos) do
      c.pos <- c.pos + 1
    done;
    let lit = String.sub c.s start (c.pos - start) in
    let floatish =
      String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') lit
    in
    let as_float () =
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail c "invalid number"
    in
    if floatish then as_float ()
    else match int_of_string_opt lit with Some i -> Int i | None -> as_float ()
  end

let int c =
  ws c;
  let i = plain_int c in
  if i <> min_int then i
  else
    let start = c.pos in
    match number c with
    | Int i -> i
    | j ->
        c.pos <- start;
        fail c ("expected int, got " ^ to_string j)

(* An integral literal reads as the identical double. *)
let float c =
  match number c with
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> fail c "expected number"

let bool c =
  ws c;
  match peek c with
  | 't' ->
      keyword c "true";
      true
  | 'f' ->
      keyword c "false";
      false
  | _ -> fail c "expected bool"

let null c =
  ws c;
  if peek c = 'n' then (
    keyword c "null";
    true)
  else false

let fields c f =
  ws c;
  expect c '{';
  ws c;
  if peek c = '}' then c.pos <- c.pos + 1
  else
    let rec members () =
      let k = string c in
      ws c;
      expect c ':';
      f k;
      ws c;
      match peek c with
      | ',' ->
          c.pos <- c.pos + 1;
          members ()
      | '}' -> c.pos <- c.pos + 1
      | _ -> fail c "expected ',' or '}'"
    in
    members ()

let elements c f =
  ws c;
  expect c '[';
  ws c;
  if peek c = ']' then c.pos <- c.pos + 1
  else
    let rec elems () =
      f ();
      ws c;
      match peek c with
      | ',' ->
          c.pos <- c.pos + 1;
          elems ()
      | ']' -> c.pos <- c.pos + 1
      | _ -> fail c "expected ',' or ']'"
    in
    elems ()

let rec value c =
  ws c;
  if c.pos >= c.stop then fail c "unexpected end of input";
  match peek c with
  | '{' ->
      let kvs = ref [] in
      fields c (fun k -> kvs := (k, value c) :: !kvs);
      Obj (List.rev !kvs)
  | '[' ->
      let xs = ref [] in
      elements c (fun () -> xs := value c :: !xs);
      List (List.rev !xs)
  | '"' -> String (string c)
  | 't' | 'f' -> Bool (bool c)
  | 'n' ->
      keyword c "null";
      Null
  | _ -> number c

let rec skip c =
  ws c;
  match peek c with
  | '{' -> fields c (fun _ -> skip c)
  | '[' -> elements c (fun () -> skip c)
  | _ -> ignore (value c : t)

let read ?(pos = 0) ?len s f =
  let len = Option.value len ~default:(String.length s - pos) in
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Json.read";
  let c = { s; pos; stop = pos + len; start = pos } in
  match
    let v = f c in
    ws c;
    if c.pos <> c.stop then fail c "trailing input";
    v
  with
  | v -> Ok v
  | exception Parse msg -> Error msg

let of_string s = read s value

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
