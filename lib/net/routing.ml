type policy = First_fit | Widest | Least_loaded | Random_fit

let policy_name = function
  | First_fit -> "first-fit"
  | Widest -> "widest"
  | Least_loaded -> "least-loaded"
  | Random_fit -> "random-fit"

let all_policies = [ First_fit; Widest; Least_loaded; Random_fit ]

let bottleneck_residual net path =
  Path.bottleneck path ~capacity_of:(fun e -> Net_state.residual net e.Graph.id)

let peak_utilization net path =
  Array.fold_left
    (fun acc id -> max acc (Net_state.edge_utilization net id))
    0.0 (Path.hop_ids path)

let select_from ?rng ?(policy = First_fit) net ~demand candidates =
  match policy with
  | First_fit ->
      (* First-fit needs only the first feasible candidate — don't pay
         feasibility checks for the rest of the list. Picks the same
         path the filter-then-head formulation did. *)
      List.find_opt (fun p -> Net_state.path_feasible net p ~demand) candidates
  | _ -> (
  let feasible =
    List.filter (fun p -> Net_state.path_feasible net p ~demand) candidates
  in
  match feasible with
  | [] -> None
  | first :: _ -> (
      match policy with
      | First_fit -> assert false
      | Widest ->
          let best =
            List.fold_left
              (fun (bp, bw) p ->
                let w = bottleneck_residual net p in
                if w > bw then (p, w) else (bp, bw))
              (first, bottleneck_residual net first)
              feasible
          in
          Some (fst best)
      | Least_loaded ->
          let best =
            List.fold_left
              (fun (bp, bu) p ->
                let u = peak_utilization net p in
                if u < bu then (p, u) else (bp, bu))
              (first, peak_utilization net first)
              feasible
          in
          Some (fst best)
      | Random_fit -> (
          match rng with
          | None -> invalid_arg "Routing.select_from: Random_fit needs an rng"
          | Some rng -> Some (Prng.choose rng (Array.of_list feasible)))))

let select ?rng ?policy net record =
  let demand = Flow_record.demand_mbps record in
  select_from ?rng ?policy net ~demand (Net_state.candidate_paths net record)

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

let nth_candidate candidates ~ecmp =
  match candidates with
  | [] -> None
  | _ ->
      let n = List.length candidates in
      List.nth_opt candidates (ecmp mod n)

let desired_path net record =
  let candidates = Net_state.candidate_paths net record in
  nth_candidate candidates
    ~ecmp:(ecmp_index record ~n:(max 1 (List.length candidates)))
