let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg ("Descriptive." ^ name ^ ": empty")

let total xs =
  (* Kahan summation keeps the large ECT sums accurate when mixing
     microsecond plan times with multi-second transfer times. *)
  let sum = ref 0.0 and comp = ref 0.0 in
  Array.iter
    (fun x ->
      let y = x -. !comp in
      let t = !sum +. y in
      comp := (t -. !sum) -. y;
      sum := t)
    xs;
  !sum

let mean xs =
  check_nonempty "mean" xs;
  total xs /. float_of_int (Array.length xs)

let max_value xs =
  check_nonempty "max_value" xs;
  Array.fold_left max xs.(0) xs

let percentile xs p =
  check_nonempty "percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Descriptive.percentile: p";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then sorted.(lo)
    else
      let frac = rank -. float_of_int lo in
      sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let reduction_vs ~baseline v =
  if baseline <= 0.0 then invalid_arg "Descriptive.reduction_vs: baseline";
  (baseline -. v) /. baseline
