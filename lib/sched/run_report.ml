module Json = Nu_obs.Json

let summary_to_json (s : Metrics.summary) =
  Json.Obj
    [
      ("policy", Json.String s.Metrics.policy_name);
      ("n_events", Json.Int s.Metrics.n_events);
      ("avg_ect_s", Json.Float s.Metrics.avg_ect_s);
      ("tail_ect_s", Json.Float s.Metrics.tail_ect_s);
      ("p95_ect_s", Json.Float s.Metrics.p95_ect_s);
      ("p99_ect_s", Json.Float s.Metrics.p99_ect_s);
      ("avg_queuing_s", Json.Float s.Metrics.avg_queuing_s);
      ("worst_queuing_s", Json.Float s.Metrics.worst_queuing_s);
      ("total_cost_mbit", Json.Float s.Metrics.total_cost_mbit);
      ("total_plan_time_s", Json.Float s.Metrics.total_plan_time_s);
      ("total_plan_units", Json.Int s.Metrics.total_plan_units);
      ("makespan_s", Json.Float s.Metrics.makespan_s);
      ("failed_items", Json.Int s.Metrics.failed_items);
      ("co_scheduled_events", Json.Int s.Metrics.co_scheduled_events);
    ]

let event_result_to_json (r : Engine.event_result) =
  Json.Obj
    [
      ("event_id", Json.Int r.Engine.event_id);
      ("arrival_s", Json.Float r.Engine.arrival_s);
      ("start_s", Json.Float r.Engine.start_s);
      ("completion_s", Json.Float r.Engine.completion_s);
      ("ect_s", Json.Float (Engine.ect r));
      ("queuing_s", Json.Float (Engine.queuing_delay r));
      ("cost_mbit", Json.Float r.Engine.cost_mbit);
      ("plan_work_units", Json.Int r.Engine.plan_work_units);
      ("failed_items", Json.Int r.Engine.failed_items);
      ("co_scheduled", Json.Bool r.Engine.co_scheduled);
    ]

let round_to_json (r : Engine.round_info) =
  Json.Obj
    [
      ("start_s", Json.Float r.Engine.round_start_s);
      ("executed", Json.List (List.map (fun id -> Json.Int id) r.Engine.executed));
      ("co_count", Json.Int r.Engine.co_count);
      ("units", Json.Int r.Engine.round_units);
      ("fabric_utilization", Json.Float r.Engine.fabric_utilization);
    ]

let to_json ?counters ?histograms ?series ?profile ?telemetry ?alerts
    (run : Engine.run_result) =
  let summary = Metrics.of_run run in
  Json.Obj
    ([
       ("policy", Json.String (Policy.name run.Engine.policy));
       ("summary", summary_to_json summary);
       ( "events",
         Json.List
           (Array.to_list (Array.map event_result_to_json run.Engine.events))
       );
       ("rounds", Json.Int run.Engine.rounds);
       ("rounds_log", Json.List (List.map round_to_json run.Engine.rounds_log));
       ( "planning_wall_s", Json.Float run.Engine.planning_wall_s );
       ( "final_fabric_utilization",
         Json.Float run.Engine.final_fabric_utilization );
     ]
    @ (match counters with
      | None -> []
      | Some snap -> [ ("counters", Nu_obs.Counters.to_json snap) ])
    @ (match histograms with
      | None -> []
      | Some hs ->
          [
            ( "histograms",
              Json.Obj
                (List.map
                   (fun (name, h) -> (name, Nu_obs.Histogram.to_json h))
                   hs) );
          ])
    @ (match series with
      | None -> []
      | Some s -> [ ("series", Nu_obs.Series.to_json s) ])
    @ (match profile with
      | None -> []
      | Some p -> [ ("profile", Nu_obs.Profile.to_json p) ])
    @ (match telemetry with
      | None -> []
      | Some j -> [ ("telemetry", (j : Nu_obs.Json.t)) ])
    @
    match alerts with
    | None -> []
    | Some j -> [ ("alerts", (j : Nu_obs.Json.t)) ])
