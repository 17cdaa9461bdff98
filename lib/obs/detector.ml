(* Streaming detectors: EWMA+CUSUM change-point, OLS slope, windowed
   rate. Deterministic pure-state machines — see detector.mli. *)

module Cusum = struct
  (* The fixed parameters, documented in detector.mli. *)
  let alpha = 0.2
  let k_sigma = 0.5
  let h_sigma = 5.0
  let warmup = 10
  let rel_floor = 0.05
  let abs_floor = 1e-9

  type direction = Up | Down

  type status = {
    firing : bool;
    changed : bool;
    direction : direction option;
    score : float;
    mean : float;
    sigma : float;
  }

  type t = {
    mutable mean : float;
    mutable dev : float; (* EWMA of |x - mean|, the sigma proxy *)
    mutable s_pos : float; (* one-sided statistics, sigma units *)
    mutable s_neg : float;
    mutable n : int;
    mutable st : status;
  }

  let quiet =
    {
      firing = false;
      changed = false;
      direction = None;
      score = 0.0;
      mean = 0.0;
      sigma = 0.0;
    }

  let create () =
    { mean = 0.0; dev = 0.0; s_pos = 0.0; s_neg = 0.0; n = 0; st = quiet }

  let sigma_of t =
    let floor_rel = rel_floor *. Float.abs t.mean in
    Float.max abs_floor (Float.max floor_rel t.dev)

  let observe t x =
    if t.n = 0 then begin
      (* Seed the baseline on the first sample so warmup measures real
         deviations instead of the distance from zero. *)
      t.mean <- x;
      t.dev <- 0.0
    end;
    let was_firing = t.st.firing in
    let sigma = sigma_of t in
    let mean = t.mean in
    let z = (x -. mean) /. sigma in
    if t.n >= warmup then begin
      (* Capped so a long excursion cannot take unboundedly long to
         decay once the baseline catches up. *)
      let cap = 2.0 *. h_sigma in
      t.s_pos <- Float.min cap (Float.max 0.0 (t.s_pos +. z -. k_sigma));
      t.s_neg <- Float.min cap (Float.max 0.0 (t.s_neg -. z -. k_sigma))
    end;
    let score = Float.max t.s_pos t.s_neg in
    let firing = score > h_sigma in
    let direction =
      if not firing then None
      else if t.s_pos >= t.s_neg then Some Up
      else Some Down
    in
    let a = alpha in
    t.dev <- ((1.0 -. a) *. t.dev) +. (a *. Float.abs (x -. mean));
    t.mean <- ((1.0 -. a) *. mean) +. (a *. x);
    t.n <- t.n + 1;
    let st =
      { firing; changed = firing && not was_firing; direction; score; mean; sigma }
    in
    t.st <- st;
    st

  let last t = t.st
end

module Slope = struct
  type t = {
    ring : float array;
    mutable idx : int;
    mutable count : int;
  }

  let create ~window =
    let window = max 2 window in
    { ring = Array.make window 0.0; idx = 0; count = 0 }

  let observe t x =
    let w = Array.length t.ring in
    t.ring.(t.idx) <- x;
    t.idx <- (t.idx + 1) mod w;
    if t.count < w then t.count <- t.count + 1;
    if t.count < w then None
    else begin
      (* Chronological order starts at idx (oldest slot after the
         wrap). x_i = 0..w-1, closed-form OLS slope. *)
      let n = float_of_int w in
      let sx = n *. (n -. 1.0) /. 2.0 in
      let sxx = n *. (n -. 1.0) *. ((2.0 *. n) -. 1.0) /. 6.0 in
      let sy = ref 0.0 and sxy = ref 0.0 in
      for i = 0 to w - 1 do
        let y = t.ring.((t.idx + i) mod w) in
        sy := !sy +. y;
        sxy := !sxy +. (float_of_int i *. y)
      done;
      let denom = (n *. sxx) -. (sx *. sx) in
      if denom = 0.0 then Some 0.0
      else Some (((n *. !sxy) -. (sx *. !sy)) /. denom)
    end
end

module Rate = struct
  type t = {
    ring : int array;
    mutable idx : int;
    mutable total : int;
  }

  let create ~window =
    let window = max 1 window in
    { ring = Array.make window 0; idx = 0; total = 0 }

  let observe t d =
    t.total <- t.total - t.ring.(t.idx) + d;
    t.ring.(t.idx) <- d;
    t.idx <- (t.idx + 1) mod Array.length t.ring;
    t.total
end
