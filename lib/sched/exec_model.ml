(* 1 ms per programmed hop, 500 Mbps migration rate, 8-way intra-event
   parallelism, 0.1 ms per planner work unit. *)
let rule_install_s = 0.001
let migration_rate_mbps = 500.0
let intra_event_parallelism = 8.0
let plan_unit_cost_s = 1e-4

let execution_time (plan : Planner.t) =
  let rule_time = float_of_int plan.Planner.rule_hops *. rule_install_s in
  let transfer_time = plan.Planner.transfer_mbit /. migration_rate_mbps in
  (* The controller cannot parallelise beyond the number of flows the
     plan actually touches: a one-flow plan gains nothing. *)
  let satisfied = List.length plan.Planner.items - plan.Planner.failed_count in
  let effective =
    min intra_event_parallelism (float_of_int (max 1 satisfied))
  in
  (rule_time +. transfer_time) /. effective

let plan_time ~work_units =
  if work_units < 0 then invalid_arg "Exec_model.plan_time";
  float_of_int work_units *. plan_unit_cost_s
