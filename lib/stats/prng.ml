(* SplitMix64. Reference: Steele, Lea, Flood, "Fast splittable
   pseudorandom number generators", OOPSLA 2014. The state is a single
   64-bit counter advanced by the golden-gamma constant; output mixing is
   the murmur3-style finalizer variant from the paper.

   The counter lives unboxed in an 8-byte cell: a [mutable int64] field
   would box a fresh Int64 on every draw. Reads and writes go through
   the unchecked native-endian primitives, so the arithmetic of a draw
   stays in registers; only a value returned across the module boundary
   ([bits64]'s int64, a float) is boxed. *)

type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] of_raw_state state =
  let t = Bytes.create 8 in
  set_state t 0 state;
  t

let create seed = of_raw_state (mix64 (Int64.of_int seed))
let raw_state t = get_state t 0

let[@inline] next t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let bits64 t = next t
let split t = of_raw_state (mix64 (next t))

(* Unbiased bounded draw by rejection on the top bits. *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound = 1 then 0
  else begin
    let mask = ref 1 in
    while !mask < bound - 1 do
      mask := (!mask lsl 1) lor 1
    done;
    (* Starts out of range, so at least one draw is made. *)
    let v = ref bound in
    while !v >= bound do
      v := Int64.to_int (Int64.shift_right_logical (next t) 2) land !mask
    done;
    !v
  end

let int_in t lo hi =
  if lo > hi then invalid_arg "Prng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let unit_float t =
  (* 53 significant bits, uniform in [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int bits *. 0x1.0p-53

let float t bound = unit_float t *. bound

let float_in t lo hi =
  if lo > hi then invalid_arg "Prng.float_in: lo > hi";
  lo +. (unit_float t *. (hi -. lo))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || n < 0 then invalid_arg "Prng.sample_without_replacement";
  if k >= n then List.init n (fun i -> i)
  else begin
    (* Floyd's algorithm: O(k) expected, no O(n) scratch. *)
    let seen = Hashtbl.create (2 * k) in
    let acc = ref [] in
    for j = n - k to n - 1 do
      let r = int t (j + 1) in
      let pick = if Hashtbl.mem seen r then j else r in
      Hashtbl.replace seen pick ();
      acc := pick :: !acc
    done;
    !acc
  end

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))
