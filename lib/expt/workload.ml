type setup = {
  utilization : float;
  n_events : int;
  shape : Event_gen.shape;
  seed : int;
  churn : bool;
}

let default_setup =
  {
    utilization = 0.70;
    n_events = 30;
    shape = Event_gen.Heterogeneous;
    seed = 42;
    churn = true;
  }

let run_policies setup policies =
  let scenario =
    Scenario.prepare ~utilization:setup.utilization ~seed:setup.seed ()
  in
  let events = Scenario.events ~shape:setup.shape scenario ~n:setup.n_events in
  List.map
    (fun policy ->
      (* Fresh churn per run: each policy must see the same regeneration
         stream from the same starting point. *)
      let churn =
        if setup.churn then
          Some
            (Scenario.churn ~target:setup.utilization ~seed:(setup.seed + 2)
               scenario)
        else None
      in
      let run =
        Engine.run ?churn ~seed:(setup.seed + 1)
          ~net:(Net_state.copy scenario.Scenario.net)
          ~events policy
      in
      Metrics.of_run run)
    policies

let averaged setup ~seeds policies =
  let per_seed =
    List.map (fun seed -> run_policies { setup with seed } policies) seeds
  in
  List.mapi
    (fun i policy -> (policy, List.map (fun summaries -> List.nth summaries i) per_seed))
    policies

let mean_of get summaries =
  match summaries with
  | [] -> invalid_arg "Workload.mean_of: empty"
  | _ ->
      List.fold_left (fun acc s -> acc +. get s) 0.0 summaries
      /. float_of_int (List.length summaries)

let reduction_pct ~baseline v =
  if baseline <= 0.0 then 0.0 else 100.0 *. ((baseline -. v) /. baseline)
