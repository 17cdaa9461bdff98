let basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L
let int64 h x = Int64.mul (Int64.logxor h x) prime
let int h i = int64 h (Int64.of_int i)
let float h f = int64 h (Int64.bits_of_float f)
let string h s = String.fold_left (fun h c -> int h (Char.code c)) h s
let hex h = Printf.sprintf "%016Lx" h
let string_hex s = hex (string basis s)
