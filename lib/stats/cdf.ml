type t = { sorted : float array }

let of_samples xs =
  if Array.length xs = 0 then invalid_arg "Cdf.of_samples: empty";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  { sorted }

let size t = Array.length t.sorted

let inverse t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Cdf.inverse: p";
  let n = size t in
  let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
  let idx = if idx < 0 then 0 else if idx >= n then n - 1 else idx in
  t.sorted.(idx)

let pp ppf t =
  let q p = inverse t p in
  Format.fprintf ppf "cdf[n=%d p10=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g]"
    (size t) (q 0.10) (q 0.50) (q 0.90) (q 0.99) (q 1.0)
