(** Synthetic stand-in for the Yahoo! datacenter trace.

    The real dataset (Chen et al., INFOCOM 2011) is not redistributable,
    so this generator reproduces the published marginals the paper's
    evaluation actually consumes: anonymised IP endpoints (hashed onto
    hosts via {!Ip_map}, exactly as the paper does), heavy-tailed flow
    bandwidths — a small population of long-lived elephant flows carrying
    most bytes over inter-DC links — log-normal durations, and Poisson
    arrivals. See DESIGN.md §2 for the substitution argument. *)

val generate :
  ?first_id:int ->
  Prng.t ->
  host_count:int ->
  n:int ->
  Flow_record.t array
(** [generate rng ~host_count ~n] draws [n] flows sorted by arrival, with
    ids [first_id, first_id + n) (default from 0). Endpoints are produced
    by drawing random anonymised IPv4 addresses and hashing them with
    {!Ip_map.host_pair}. Requires [host_count >= 2] and [n >= 0]. Flows
    draw bounded-Pareto(1.1) demand on [1, 400] Mbps,
    log-normal durations with median ~30 s and a 50 ms mean
    inter-arrival. *)
