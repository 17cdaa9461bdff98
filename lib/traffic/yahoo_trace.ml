(* Bounded-Pareto demand (Mbps), log-normal duration (log-seconds) and
   Poisson arrivals. *)
let demand_shape = 1.1
let demand_lo_mbps = 1.0
let demand_hi_mbps = 400.0
let duration_log_mean = log 30.0
let duration_log_sigma = 1.0
let mean_interarrival_s = 0.05
let interarrival_rate = 1.0 /. mean_interarrival_s

let next rng ~host_count ~id ~after_s =
  if host_count < 2 then invalid_arg "Yahoo_trace.next: host_count";
  let arrival_s =
    after_s +. Dist.exponential rng ~rate:interarrival_rate
  in
  (* Anonymised IPs, hashed onto hosts — the paper's own pipeline. The
     int32 addresses stay unboxed ints on their way to [Ip_map]. *)
  let src_ip = Int32.to_int (Int64.to_int32 (Prng.bits64 rng)) in
  let dst_ip = Int32.to_int (Int64.to_int32 (Prng.bits64 rng)) in
  let src = Ip_map.host_of_ip ~host_count src_ip in
  let dst = Ip_map.peer_of_ip ~host_count ~src dst_ip in
  let demand =
    Dist.bounded_pareto rng ~shape:demand_shape ~lo:demand_lo_mbps
      ~hi:demand_hi_mbps
  in
  let duration =
    Dist.lognormal rng ~mu:duration_log_mean ~sigma:duration_log_sigma
  in
  Flow_record.v ~id ~src ~dst
    ~size_mbit:(demand *. duration)
    ~duration_s:duration ~arrival_s

let generate ?(first_id = 0) rng ~host_count ~n =
  if host_count < 2 then invalid_arg "Yahoo_trace.generate: host_count";
  if n < 0 then invalid_arg "Yahoo_trace.generate: n";
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
