(* Bounded-Pareto demand (Mbps), log-normal duration (log-seconds) and
   Poisson arrivals. *)
let demand_shape = 1.1
let demand_lo_mbps = 1.0
let demand_hi_mbps = 400.0
let duration_log_mean = log 30.0
let duration_log_sigma = 1.0
let mean_interarrival_s = 0.05

let generate ?(first_id = 0) rng ~host_count ~n =
  if host_count < 2 then invalid_arg "Yahoo_trace.generate: host_count";
  if n < 0 then invalid_arg "Yahoo_trace.generate: n";
  let clock = ref 0.0 in
  Array.init n (fun i ->
      let id = first_id + i in
      clock :=
        !clock
        +. Dist.exponential rng ~rate:(1.0 /. mean_interarrival_s);
      (* Anonymised IPs, hashed onto hosts — the paper's own pipeline. *)
      let src_ip = Int64.to_int32 (Prng.bits64 rng) in
      let dst_ip = Int64.to_int32 (Prng.bits64 rng) in
      let src, dst = Ip_map.host_pair ~host_count ~src_ip ~dst_ip in
      let demand =
        Dist.bounded_pareto rng ~shape:demand_shape ~lo:demand_lo_mbps
          ~hi:demand_hi_mbps
      in
      let duration =
        Dist.lognormal rng ~mu:duration_log_mean ~sigma:duration_log_sigma
      in
      Flow_record.v ~id ~src ~dst
        ~size_mbit:(demand *. duration)
        ~duration_s:duration ~arrival_s:!clock)
