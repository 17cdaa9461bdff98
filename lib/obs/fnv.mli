(** FNV-1a, 64-bit: the one hash behind every digest in the repo.

    A state is folded one value at a time: XOR the value into the
    state, then multiply by the FNV prime. Strings fold byte by byte,
    integers and floats fold as one 64-bit word each. Every digest
    prints as 16 lowercase hex digits. *)

val basis : int64
(** The FNV-1a 64 offset basis — the digest of nothing. *)

val int : int64 -> int -> int64

val float : int64 -> float -> int64
(** Folds the IEEE bit pattern, so [-0.] and [0.] differ. *)

val string : int64 -> string -> int64
(** Folds the bytes in order. Allocates nothing per byte. *)

val substring : int64 -> string -> pos:int -> len:int -> int64
(** [string h (String.sub s pos len)] without the copy. Raises
    [Invalid_argument] when the span is not inside [s]. *)

val hex : int64 -> string
(** [%016Lx]. *)

val string_hex : string -> string
(** [hex (string basis s)]. *)
