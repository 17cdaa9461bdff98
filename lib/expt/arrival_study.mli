(** Extension experiment: Poisson event arrivals.

    The paper's evaluation queues all events at t = 0 (a maintenance
    batch). Under continuous operation events arrive over time; the
    schedulers only matter while a backlog exists. This study sweeps the
    offered load (mean event inter-arrival time) for a fixed 40-event
    workload and reports average ECT and queuing delay per policy:
    at low load every policy collapses to "serve immediately", while at
    high load the batch-regime gaps reappear — locating the contention
    threshold where event-level scheduling starts to pay. *)

type point = {
  mean_interarrival_s : float;
  fifo_avg_ect : float;
  lmtf_avg_ect : float;
  plmtf_avg_ect : float;
  fifo_avg_q : float;
  lmtf_avg_q : float;
  plmtf_avg_q : float;
}

val compute : seed:int -> alpha:int -> point list
(** 40 events at mean inter-arrivals [0.25; 0.5; 1; 2; 4] seconds. *)

val run : ?seed:int -> ?alpha:int -> unit -> unit
(** Compute and print the table (defaults: seed 42, α = 4). *)
