(** Fig. 8 — event queuing delay reductions vs FIFO.

    For 10-50 queued heterogeneous events (α = 4, utilisation
    fluctuating 50-70%), the paper reports reductions in average and
    worst-case event queuing delay: LMTF 20-40% (average) and 10-30%
    (worst case); P-LMTF 67-83% and 60-74%. *)

type point = {
  n_events : int;
  lmtf_avg_q_red : float;
  lmtf_worst_q_red : float;
  plmtf_avg_q_red : float;
  plmtf_worst_q_red : float;
}

val of_sweep : Fig6.sweep_point list -> point list
(** Fig. 8 reads the same runs as Fig. 6: compute both tables from one
    {!Fig6.sweep}. *)

val print : point list -> unit
(** Print the Fig. 8 table. *)

val run : ?seeds:int list -> ?alpha:int -> unit -> unit
(** [print (of_sweep (Fig6.sweep ?seeds ?alpha ()))]. *)
