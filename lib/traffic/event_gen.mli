(** Update-event workload generation (paper §V-A).

    The evaluation generates "a set of heterogeneous network update
    events which differ in the number of flows, flow sizes, and flow
    durations": flows-per-event uniform in [10, 100] (heterogeneous) or
    [50, 60] (synchronous, §V-D), per-flow characteristics from the
    Benson trace, endpoints uniform over the whole datacenter. An event
    spec here is pure data — a group of flow records plus an arrival
    instant; {!Nu_update} turns specs into plannable events. *)

type spec = {
  event_id : int;
  arrival_s : float;
  flows : Flow_record.t list;  (** Non-empty; ids unique per workload. *)
}

type shape =
  | Heterogeneous  (** Flows per event uniform in [10, 100]. *)
  | Synchronous  (** Flows per event uniform in [50, 60]. *)
  | Fixed of int  (** Exactly that many flows per event. *)
  | Range of int * int  (** Uniform in a custom inclusive range. *)

type arrival_process =
  | Batch  (** All events queued at t = 0 (the paper's queue setup). *)
  | Poisson of float  (** Mean inter-arrival seconds. *)

val generate :
  ?shape:shape ->
  ?arrivals:arrival_process ->
  ?flow_params:Benson_trace.params ->
  ?first_flow_id:int ->
  Prng.t ->
  host_count:int ->
  n_events:int ->
  spec list
(** [generate rng ~host_count ~n_events] builds the event queue in
    arrival order. Defaults: [Heterogeneous], [Batch], Benson default
    flow characteristics. Flow ids are unique across the whole workload;
    each flow's [arrival_s] equals its event's arrival. Requires
    [host_count >= 2], [n_events >= 0]. *)
