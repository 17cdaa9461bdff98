(* The finalizer from SplitMix64/MurmurHash3: full-avalanche mixing of a
   64-bit word, so nearby anonymised IPs spread uniformly over hosts.
   Inlined, so the int64 never leaves registers. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* [ip] is an int32's value held in an int; [Int64.of_int] of it is
   [Int64.of_int32] of the address, so the hash is the int32 one. *)
let host_of_ip ~host_count ip =
  if host_count < 1 then invalid_arg "Ip_map.host_of_ip: host_count";
  let h = mix64 (Int64.of_int ip) in
  let v = Int64.to_int (Int64.shift_right_logical h 2) in
  v mod host_count

let peer_of_ip ~host_count ~src ip =
  if host_count < 2 then invalid_arg "Ip_map.peer_of_ip: host_count";
  let d = host_of_ip ~host_count ip in
  if src <> d then d else (d + 1) mod host_count
