type params = {
  seed : int;
  fault_seed : int;
  fault_rate : float;
  retry_max : int;
  utilization : float;
  n_events : int;
  alpha : int;
}

let default_params =
  {
    seed = 42;
    fault_seed = 7;
    fault_rate = 0.2;
    retry_max = 3;
    utilization = 0.70;
    n_events = 30;
    alpha = 4;
  }

type result = {
  params : params;
  schedule_length : int;
  run : Engine.run_result;
  recovery : Recovery.t;
  violations : int;
  digest : string;
}

let run ?(params = default_params) () =
  let policy = Policy.Plmtf { alpha = params.alpha } in
  let scenario =
    Scenario.prepare ~utilization:params.utilization ~seed:params.seed ()
  in
  let events = Scenario.events scenario ~n:params.n_events in
  let config =
    {
      Fault_model.default_config with
      Fault_model.rate_per_s = params.fault_rate;
    }
  in
  let schedule =
    Fault_model.generate ~config ~seed:params.fault_seed
      scenario.Scenario.topology
  in
  let retry =
    { Retry_policy.max_attempts = params.retry_max }
  in
  let injector = Injector.create ~retry schedule in
  let run =
    Engine.run ~seed:(params.seed + 1) ~injector
      ~net:(Net_state.copy scenario.Scenario.net)
      ~events policy
  in
  let recovery = Injector.recovery injector in
  {
    params;
    schedule_length = List.length schedule;
    run;
    recovery;
    violations = Injector.violations injector;
    digest = Recovery.digest recovery;
  }

let result_to_json r =
  let summary = Metrics.of_run r.run in
  Obs.Json.Obj
    [
      ( "params",
        Obs.Json.Obj
          [
            ("seed", Obs.Json.Int r.params.seed);
            ("fault_seed", Obs.Json.Int r.params.fault_seed);
            ("fault_rate", Obs.Json.Float r.params.fault_rate);
            ("retry_max", Obs.Json.Int r.params.retry_max);
            ("utilization", Obs.Json.Float r.params.utilization);
            ("n_events", Obs.Json.Int r.params.n_events);
            ("alpha", Obs.Json.Int r.params.alpha);
          ] );
      ("policy", Obs.Json.String (Policy.name r.run.Engine.policy));
      ("schedule_length", Obs.Json.Int r.schedule_length);
      ("recovery", Recovery.stats_to_json r.recovery);
      ("avg_ect_s", Obs.Json.Float summary.Metrics.avg_ect_s);
      ("makespan_s", Obs.Json.Float summary.Metrics.makespan_s);
      ("rounds", Obs.Json.Int r.run.Engine.rounds);
    ]

let print r =
  let s = Recovery.stats r.recovery in
  Format.printf "chaos: policy %s, %d faults scheduled, seed %d/%d@."
    (Policy.name r.run.Engine.policy)
    r.schedule_length r.params.seed r.params.fault_seed;
  Format.printf
    "  applied %d, aborts %d, retries %d, degraded %d, evacuated %d, dropped \
     %d@."
    s.Recovery.faults_applied s.Recovery.aborts s.Recovery.retries
    s.Recovery.degraded s.Recovery.evacuated s.Recovery.dropped;
  Format.printf "  invariant violations: %d@." r.violations;
  Format.printf "  recovery digest: %s@." r.digest
