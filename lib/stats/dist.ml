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
  (* Polar Box-Muller; rejection keeps the pair inside the unit disc. A
     loop over local float refs, not a recursive closure: the refs stay
     unboxed, so a draw allocates only the floats [Prng] returns. *)
  let u = ref 0.0 and s = ref 1.0 in
  while !s >= 1.0 || !s = 0.0 do
    u := (2.0 *. Prng.unit_float rng) -. 1.0;
    let v = (2.0 *. Prng.unit_float rng) -. 1.0 in
    s := (!u *. !u) +. (v *. v)
  done;
  let u = !u and s = !s in
  mu +. (sigma *. (u *. sqrt (-2.0 *. log s /. s)))

let lognormal rng ~mu ~sigma = exp (normal rng ~mu ~sigma)
