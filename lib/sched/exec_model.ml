type t = {
  rule_install_s : float;
  migration_rate_mbps : float;
  intra_event_parallelism : float;
  plan_unit_cost_s : float;
}

let default =
  {
    rule_install_s = 0.001;
    migration_rate_mbps = 500.0;
    intra_event_parallelism = 8.0;
    plan_unit_cost_s = 1e-4;
  }

let execution_time t (plan : Planner.t) =
  if t.intra_event_parallelism < 1.0 then
    invalid_arg "Exec_model.execution_time: parallelism < 1";
  if t.migration_rate_mbps <= 0.0 then
    invalid_arg "Exec_model.execution_time: migration rate";
  let rule_time = float_of_int plan.Planner.rule_hops *. t.rule_install_s in
  let transfer_time = plan.Planner.transfer_mbit /. t.migration_rate_mbps in
  (* The controller cannot parallelise beyond the number of flows the
     plan actually touches: a one-flow plan gains nothing. *)
  let satisfied = List.length plan.Planner.items - plan.Planner.failed_count in
  let effective =
    min t.intra_event_parallelism (float_of_int (max 1 satisfied))
  in
  (rule_time +. transfer_time) /. effective

let plan_time t ~work_units =
  if work_units < 0 then invalid_arg "Exec_model.plan_time";
  float_of_int work_units *. t.plan_unit_cost_s
