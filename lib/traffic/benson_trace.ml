type params = {
  mice_fraction : float;
  mice_demand_lo_mbps : float;
  mice_demand_hi_mbps : float;
  elephant_demand_shape : float;
  elephant_demand_lo_mbps : float;
  elephant_demand_hi_mbps : float;
  mice_duration_log_mean : float;
  mice_duration_log_sigma : float;
  elephant_duration_log_mean : float;
  elephant_duration_log_sigma : float;
  interarrival_log_mean : float;
  interarrival_log_sigma : float;
}

let default_params =
  {
    mice_fraction = 0.8;
    mice_demand_lo_mbps = 0.1;
    mice_demand_hi_mbps = 10.0;
    elephant_demand_shape = 1.2;
    elephant_demand_lo_mbps = 10.0;
    elephant_demand_hi_mbps = 200.0;
    mice_duration_log_mean = log 1.0;
    mice_duration_log_sigma = 0.8;
    elephant_duration_log_mean = log 10.0;
    elephant_duration_log_sigma = 0.8;
    interarrival_log_mean = log 0.01;
    interarrival_log_sigma = 1.0;
  }

let draw_flow ?(params = default_params) rng ~id ~src ~dst ~arrival_s =
  let mouse = Prng.unit_float rng < params.mice_fraction in
  let demand =
    if mouse then
      Prng.float_in rng params.mice_demand_lo_mbps params.mice_demand_hi_mbps
    else
      Dist.bounded_pareto rng ~shape:params.elephant_demand_shape
        ~lo:params.elephant_demand_lo_mbps ~hi:params.elephant_demand_hi_mbps
  in
  let duration =
    if mouse then
      Dist.lognormal rng ~mu:params.mice_duration_log_mean
        ~sigma:params.mice_duration_log_sigma
    else
      Dist.lognormal rng ~mu:params.elephant_duration_log_mean
        ~sigma:params.elephant_duration_log_sigma
  in
  Flow_record.v ~id ~src ~dst
    ~size_mbit:(demand *. duration)
    ~duration_s:duration ~arrival_s

let next rng ~host_count ~id ~after_s =
  if host_count < 2 then invalid_arg "Benson_trace.next: host_count";
  let arrival_s =
    after_s
    +. Dist.lognormal rng ~mu:default_params.interarrival_log_mean
         ~sigma:default_params.interarrival_log_sigma
  in
  let src = Prng.int rng host_count in
  let dst =
    let d = Prng.int rng (host_count - 1) in
    if d >= src then d + 1 else d
  in
  draw_flow rng ~id ~src ~dst ~arrival_s

let generate ?(first_id = 0) rng ~host_count ~n =
  if host_count < 2 then invalid_arg "Benson_trace.generate: host_count";
  if n < 0 then invalid_arg "Benson_trace.generate: n";
  if n = 0 then [||]
  else begin
    let flows = Array.make n (next rng ~host_count ~id:first_id ~after_s:0.0) in
    for i = 1 to n - 1 do
      flows.(i) <-
        next rng ~host_count ~id:(first_id + i)
          ~after_s:flows.(i - 1).Flow_record.arrival_s
    done;
    flows
  end
