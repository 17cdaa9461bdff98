(** Fig. 6 — LMTF and P-LMTF against FIFO as the queue grows.

    The paper's headline comparison: for 10-50 queued events (10-100
    flows each, network utilisation fluctuating between 50% and 70%
    under background churn, α = 4) it reports, against FIFO,
    (a) total-update-cost reduction — P-LMTF stable at 34-45%,
    (b) average-ECT reduction — P-LMTF 69-80%, LMTF 22-36%,
    (c) tail-ECT reduction — P-LMTF 35-48%, LMTF 5-26%, and
    (d) total plan time — LMTF ~4.5x FIFO, P-LMTF ~2x. *)

type point = {
  n_events : int;
  lmtf_cost_red : float;  (** Percent reduction vs FIFO. *)
  plmtf_cost_red : float;
  lmtf_avg_red : float;
  plmtf_avg_red : float;
  lmtf_tail_red : float;
  plmtf_tail_red : float;
  fifo_plan_s : float;  (** Absolute plan times (Fig. 6d). *)
  lmtf_plan_s : float;
  plmtf_plan_s : float;
}

type sweep_point = {
  sweep_events : int;
  fifo : Metrics.summary list;  (** One summary per seed. *)
  lmtf : Metrics.summary list;
  plmtf : Metrics.summary list;
}
(** One queue length of the sweep Fig. 6 and Fig. 8 share. *)

val sweep :
  ?seeds:int list ->
  ?alpha:int ->
  ?event_counts:int list ->
  unit ->
  sweep_point list
(** Run FIFO, LMTF and P-LMTF on each queue length. Defaults: seeds
    [42; 43; 44], α = 4, event counts 10 to 50 by 10. Utilisation
    setpoint 0.7 with churn (it fluctuates below between refills, the
    paper's 50-70% band). *)

val of_sweep : sweep_point list -> point list

val compute :
  ?seeds:int list ->
  ?alpha:int ->
  ?event_counts:int list ->
  unit ->
  point list
(** [of_sweep] of a fresh {!sweep}. *)

val print : point list -> unit
(** Print the Fig. 6 table. *)

val run : ?seeds:int list -> ?alpha:int -> unit -> unit
(** [print] of {!compute}. *)
