(** Minimal JSON tree, printer and pull lexer.

    The observability layer exports run reports, JSONL span logs and
    Chrome-trace files without pulling a JSON dependency into the build;
    this module is the whole codec. The printer always emits valid JSON
    (non-finite floats become [null]); the parser accepts anything the
    printer produces plus ordinary interchange JSON (it does not combine
    UTF-16 surrogate pairs in [\u] escapes).

    Reading goes through one pull lexer, a {!cursor} over a span of a
    string. {!of_string} builds a tree with it; a codec that knows its
    shape can instead pull object keys, numbers and strings straight
    from the bytes and take a {!value} subtree only where it wants
    one. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. *)

val to_buf : Buffer.t -> t -> unit
(** {!to_string}, appended to a buffer. *)

val add_int : Buffer.t -> int -> unit
(** [to_buf buf (Int i)] without building the tree node: the digits of
    [string_of_int i]. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace is an error. Numbers
    without [.], [e] or [E] that fit in [int] parse as [Int], everything
    else as [Float]. [read s value]. *)

(** {2 Pull lexer} *)

type cursor
(** A position in a span of a string. Each reader below skips the
    whitespace before its token, consumes exactly one value and raises
    an internal exception on malformed input, which {!read} turns into
    [Error "... at offset N"] (offsets count from the span's start). *)

val read :
  ?pos:int -> ?len:int -> string -> (cursor -> 'a) -> ('a, string) result
(** [read ~pos ~len s f] runs [f] on a cursor over [s]'s span (default:
    all of [s]); only whitespace may follow what [f] consumed. Raises
    [Invalid_argument] when the span is not inside [s]. *)

val fail : cursor -> string -> 'a
(** Abort the enclosing {!read} with this message and the offset. *)

val fields : cursor -> (string -> unit) -> unit
(** An object: calls the function on each key in file order, with the
    cursor on its value, which the function must consume (or {!skip}). *)

val elements : cursor -> (unit -> unit) -> unit
(** An array: calls the function once per element, which it must
    consume. *)

val int : cursor -> int
(** A number that parses as [Int]. *)

val float : cursor -> float
(** Any number; an [Int] token reads as the identical double. *)

val string_span : cursor -> string * int * int
(** A string's contents as [(s, pos, len)] without copying them: a span
    of the input when the string holds no escape, else all of an
    unescaped copy. *)

val bool : cursor -> bool

val null : cursor -> bool
(** Consumes a [null] and returns [true]; otherwise consumes nothing. *)

val skip : cursor -> unit
(** Any one value, checked like {!value} but not kept. *)

val value : cursor -> t
(** Any one value, as a tree. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]; [None] otherwise. *)
