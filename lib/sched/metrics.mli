(** The paper's five evaluation metrics over a run (§V-A).

    "They are the total update cost of all update events, the average
    ECT, the tail ECT, the total plan time, and the event queuing
    delay." Tail values are reported as p99 and the maximum (the queue
    holds at most ~50 events, where the two mostly coincide); p95 is
    also exposed. *)

type summary = {
  policy_name : string;
  n_events : int;
  avg_ect_s : float;
  tail_ect_s : float;  (** Maximum ECT. *)
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

val of_run : Engine.run_result -> summary
(** A run with no events yields an all-zero summary (totals still taken
    from the run) rather than raising. *)

val queuing_delays : Engine.run_result -> float array

val reduction : baseline:float -> float -> float
(** The paper's headline form: fractional reduction vs a baseline value
    ({!Nu_stats.Descriptive.reduction_vs}). *)

val pp_summary : Format.formatter -> summary -> unit

val pp_comparison :
  Format.formatter -> baseline:summary -> summary list -> unit
(** Render a table of reductions vs the baseline for cost / avg ECT /
    tail ECT / plan time / queuing delay. *)
