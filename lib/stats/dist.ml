let exponential rng ~rate =
  if rate <= 0.0 then invalid_arg "Dist.exponential: rate must be positive";
  let u = 1.0 -. Prng.unit_float rng in
  -.log u /. rate

let bounded_pareto rng ~shape ~lo ~hi =
  if not (0.0 < lo && lo < hi) then invalid_arg "Dist.bounded_pareto";
  if shape <= 0.0 then invalid_arg "Dist.bounded_pareto: shape";
  (* Inverse CDF of the truncated Pareto law on [lo, hi]. *)
  let u = Prng.unit_float rng in
  let la = lo ** shape and ha = hi ** shape in
  let denom = 1.0 -. (u *. (1.0 -. (la /. ha))) in
  lo /. (denom ** (1.0 /. shape))

let normal rng ~mu ~sigma =
  (* Polar Box-Muller; rejection keeps the pair inside the unit disc. *)
  let rec draw () =
    let u = (2.0 *. Prng.unit_float rng) -. 1.0 in
    let v = (2.0 *. Prng.unit_float rng) -. 1.0 in
    let s = (u *. u) +. (v *. v) in
    if s >= 1.0 || s = 0.0 then draw ()
    else u *. sqrt (-2.0 *. log s /. s)
  in
  mu +. (sigma *. draw ())

let lognormal rng ~mu ~sigma = exp (normal rng ~mu ~sigma)
