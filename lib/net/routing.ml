type policy = First_fit | Widest | Least_loaded | Random_fit

let policy_name = function
  | First_fit -> "first-fit"
  | Widest -> "widest"
  | Least_loaded -> "least-loaded"
  | Random_fit -> "random-fit"

let all_policies = [ First_fit; Widest; Least_loaded; Random_fit ]

(* Both keys fold the hops in traversal order, as the path-level folds
   did. *)
let bottleneck_residual net c i =
  Net_state.fold_hops c i ~init:infinity ~f:(fun acc e ->
      min acc (Net_state.residual net e))

let peak_utilization net c i =
  Net_state.fold_hops c i ~init:0.0 ~f:(fun acc e ->
      max acc (Net_state.edge_utilization net e))

let any _ = true

let choose ?rng ?(policy = First_fit) ?(eligible = any) net ~demand c =
  let best = ref (-1) in
  let scan f = Net_state.iter_feasible net c ~demand ~eligible f in
  (match policy with
  | First_fit ->
      (* First-fit needs only the first feasible candidate — don't pay
         feasibility checks for the rest. *)
      scan (fun i ->
          best := i;
          false)
  | Widest ->
      (* The first candidate of the widest bottleneck. *)
      let bw = ref neg_infinity in
      scan (fun i ->
          let w = bottleneck_residual net c i in
          if !best < 0 || w > !bw then begin
            best := i;
            bw := w
          end;
          true)
  | Least_loaded ->
      let bu = ref infinity in
      scan (fun i ->
          let u = peak_utilization net c i in
          if !best < 0 || u < !bu then begin
            best := i;
            bu := u
          end;
          true)
  | Random_fit -> (
      let feasible = ref [] in
      scan (fun i ->
          feasible := i :: !feasible;
          true);
      match (!feasible, rng) with
      | [], _ -> ()
      | _, None -> invalid_arg "Routing.select_from: Random_fit needs an rng"
      | l, Some rng -> best := Prng.choose rng (Array.of_list (List.rev l))));
  !best

let select_from ?policy ?eligible net ~demand c =
  choose ?policy ?eligible net ~demand c

let select ?rng ?policy net record =
  let c = Net_state.candidates net record in
  match choose ?rng ?policy net ~demand:(Flow_record.demand_mbps record) c with
  | -1 -> None
  | i -> Some (Net_state.candidate_path net c i)

(* SplitMix64 finalizer — same mixing family as Ip_map, applied to the
   flow identity so the desired path is stable across replans. *)
let mix64 z =
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
