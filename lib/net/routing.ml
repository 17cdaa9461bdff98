type policy = First_fit | Widest

let policy_name = function First_fit -> "first-fit" | Widest -> "widest"
let all_policies = [ First_fit; Widest ]

(* The key folds the hops in traversal order, as the path-level fold
   did. *)
let bottleneck_residual net c i =
  Net_state.fold_hops c i ~init:infinity ~f:(fun acc e ->
      min acc (Net_state.residual net e))

let any _ = true

let select_from ~policy ~eligible net ~demand c =
  match policy with
  | First_fit -> Net_state.first_feasible net c ~demand ~eligible ~from:0
  | Widest ->
      (* The first candidate of the widest bottleneck, walking the
         feasible candidates with the first-fit scan. *)
      let best = ref (-1) and bw = ref neg_infinity and from = ref 0 in
      while !from >= 0 do
        match Net_state.first_feasible net c ~demand ~eligible ~from:!from with
        | -1 -> from := -1
        | i ->
            let w = bottleneck_residual net c i in
            if !best < 0 || w > !bw then begin
              best := i;
              bw := w
            end;
            from := i + 1
      done;
      !best

let select net record =
  let c = Net_state.candidates net record in
  match
    Net_state.first_feasible net c ~demand:(Flow_record.demand_mbps record)
      ~eligible:any ~from:0
  with
  | -1 -> None
  | i -> Some (Net_state.candidate_path net c i)

let select_random rng net record =
  let c = Net_state.candidates net record in
  let demand = Flow_record.demand_mbps record in
  let n = Net_state.candidate_count c in
  (* The feasible indices in rank order, then one [Prng.int] over their
     count: the draw [Prng.choose] makes over the same array. *)
  let feasible = Array.make n 0 and count = ref 0 and from = ref 0 in
  while !from < n do
    match Net_state.first_feasible net c ~demand ~eligible:any ~from:!from with
    | -1 -> from := n
    | i ->
        feasible.(!count) <- i;
        incr count;
        from := i + 1
  done;
  if !count = 0 then None
  else Some (Net_state.candidate_path net c feasible.(Prng.int rng !count))

(* SplitMix64 finalizer — same mixing family as Ip_map, applied to the
   flow identity so the desired path is stable across replans. Inlined,
   so the int64 arithmetic stays unboxed in [ecmp_index]. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let ecmp_index (r : Flow_record.t) ~n =
  if n < 1 then invalid_arg "Routing.ecmp_index: n";
  let key =
    Int64.of_int ((r.id * 0x1000003) lxor (r.src * 8191) lxor (r.dst * 131))
  in
  let h = Int64.to_int (Int64.shift_right_logical (mix64 key) 2) in
  h mod n

let desired record c =
  match Net_state.candidate_count c with
  | 0 -> -1
  | n -> ecmp_index record ~n
