type summary = {
  policy_name : string;
  n_events : int;
  avg_ect_s : float;
  tail_ect_s : float;
  p95_ect_s : float;
  p99_ect_s : float;
  avg_queuing_s : float;
  worst_queuing_s : float;
  total_cost_mbit : float;
  total_plan_time_s : float;
  total_plan_units : int;
  makespan_s : float;
  failed_items : int;
  co_scheduled_events : int;
}

let ects (run : Engine.run_result) = Array.map Engine.ect run.Engine.events

let queuing_delays (run : Engine.run_result) =
  Array.map Engine.queuing_delay run.Engine.events

(* A run with no events has a well-defined (all-zero) summary; the
   totals still come from the run so e.g. churn-only plan accounting is
   preserved. *)
let empty_summary (run : Engine.run_result) =
  {
    policy_name = Policy.name run.Engine.policy;
    n_events = 0;
    avg_ect_s = 0.0;
    tail_ect_s = 0.0;
    p95_ect_s = 0.0;
    p99_ect_s = 0.0;
    avg_queuing_s = 0.0;
    worst_queuing_s = 0.0;
    total_cost_mbit = run.Engine.total_cost_mbit;
    total_plan_time_s = run.Engine.total_plan_time_s;
    total_plan_units = run.Engine.total_plan_units;
    makespan_s = run.Engine.makespan_s;
    failed_items = 0;
    co_scheduled_events = 0;
  }

let of_run (run : Engine.run_result) =
  if Array.length run.Engine.events = 0 then empty_summary run
  else
  let ect = ects run and qd = queuing_delays run in
  {
    policy_name = Policy.name run.Engine.policy;
    n_events = Array.length run.Engine.events;
    avg_ect_s = Descriptive.mean ect;
    tail_ect_s = Descriptive.max_value ect;
    p95_ect_s = Descriptive.percentile ect 95.0;
    p99_ect_s = Descriptive.percentile ect 99.0;
    avg_queuing_s = Descriptive.mean qd;
    worst_queuing_s = Descriptive.max_value qd;
    total_cost_mbit = run.Engine.total_cost_mbit;
    total_plan_time_s = run.Engine.total_plan_time_s;
    total_plan_units = run.Engine.total_plan_units;
    makespan_s = run.Engine.makespan_s;
    failed_items =
      Array.fold_left
        (fun acc (r : Engine.event_result) -> acc + r.Engine.failed_items)
        0 run.Engine.events;
    co_scheduled_events =
      Array.fold_left
        (fun acc (r : Engine.event_result) ->
          if r.Engine.co_scheduled then acc + 1 else acc)
        0 run.Engine.events;
  }

let reduction ~baseline v = Descriptive.reduction_vs ~baseline v

let pp_summary ppf s =
  Format.fprintf ppf
    "%-18s events=%d avgECT=%.3fs tailECT=%.3fs p95=%.3fs p99=%.3fs \
     avgQ=%.3fs worstQ=%.3fs cost=%.0fMbit plan=%.3fs (%d units) \
     makespan=%.3fs failed=%d co=%d"
    s.policy_name s.n_events s.avg_ect_s s.tail_ect_s s.p95_ect_s s.p99_ect_s
    s.avg_queuing_s s.worst_queuing_s s.total_cost_mbit s.total_plan_time_s
    s.total_plan_units s.makespan_s s.failed_items s.co_scheduled_events

let pp_comparison ppf ~baseline summaries =
  Format.fprintf ppf
    "@[<v>baseline: %s@,%-18s %10s %10s %10s %10s %10s@,"
    baseline.policy_name "policy" "cost-red" "avgECT-red" "tailECT-red"
    "avgQ-red" "planx";
  List.iter
    (fun s ->
      (* A zero baseline (e.g. no migration anywhere) makes a percentage
         reduction meaningless; report 0 rather than fault. *)
      let red get =
        let b = get baseline in
        if b <= 0.0 then 0.0 else 100.0 *. reduction ~baseline:b (get s)
      in
      let planx =
        if baseline.total_plan_time_s > 0.0 then
          s.total_plan_time_s /. baseline.total_plan_time_s
        else nan
      in
      Format.fprintf ppf "%-18s %9.1f%% %9.1f%% %9.1f%% %9.1f%% %9.2fx@,"
        s.policy_name
        (red (fun x -> x.total_cost_mbit))
        (red (fun x -> x.avg_ect_s))
        (red (fun x -> x.tail_ect_s))
        (red (fun x -> x.avg_queuing_s))
        planx)
    summaries;
  Format.fprintf ppf "@]"
