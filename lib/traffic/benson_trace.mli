(** Random trace with Benson et al. (IMC 2010) characteristics.

    "Network traffic characteristics of data centers in the wild": intra-DC
    traffic is mice-dominated — the vast majority of flows are small and
    short-lived — while a few percent of elephant flows carry most of the
    bytes; inter-arrivals are bursty (log-normal). The paper draws both
    its "random trace" (Fig. 1) and the flows of generated update events
    from these characteristics, so this module is used for both. *)

type params = {
  mice_fraction : float;  (** Fraction of flows that are mice, in [0,1]. *)
  mice_demand_lo_mbps : float;
  mice_demand_hi_mbps : float;
  elephant_demand_shape : float;  (** Pareto tail index of elephants. *)
  elephant_demand_lo_mbps : float;
  elephant_demand_hi_mbps : float;
  mice_duration_log_mean : float;
  mice_duration_log_sigma : float;
  elephant_duration_log_mean : float;
  elephant_duration_log_sigma : float;
  interarrival_log_mean : float;  (** Log-normal inter-arrival (log-s). *)
  interarrival_log_sigma : float;
}

val default_params : params
(** 80% mice at U[0.1, 10] Mbps for ~1 s; 20% elephants at bounded
    Pareto(1.2) on [10, 200] Mbps for ~10 s; bursty arrivals. *)

val generate :
  ?first_id:int ->
  Prng.t ->
  host_count:int ->
  n:int ->
  Flow_record.t array
(** [n] flows with {!default_params}, sorted by arrival with ids from
    [first_id] (default 0);
    endpoints drawn uniformly over distinct host pairs. Requires
    [host_count >= 2], [n >= 0]. *)

val draw_flow :
  ?params:params ->
  Prng.t ->
  id:int ->
  src:int ->
  dst:int ->
  arrival_s:float ->
  Flow_record.t
(** One flow with Benson size/duration marginals and caller-fixed
    endpoints — the primitive {!Event_gen} builds update-event flows
    from. *)
