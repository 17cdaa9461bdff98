let basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L
let int64 h x = Int64.mul (Int64.logxor h x) prime
let int h i = int64 h (Int64.of_int i)
let float h f = int64 h (Int64.bits_of_float f)

(* A local [int64 ref] that never escapes is kept unboxed by the native
   compiler, so the byte loop allocates nothing. *)
let substring h s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Fnv.substring";
  let h = ref h in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h

let string h s = substring h s ~pos:0 ~len:(String.length s)
let hex h = Printf.sprintf "%016Lx" h
let string_hex s = hex (string basis s)
