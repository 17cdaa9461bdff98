(** Fig. 9 — per-event queuing delay under the three schedulers.

    One run of 30 heterogeneous events (utilisation fluctuating 50-70%,
    α = 4); the paper plots each event's queuing delay under FIFO, LMTF
    and P-LMTF, showing LMTF trimming most events and P-LMTF flattening
    the whole series. *)

val run : ?seed:int -> ?alpha:int -> unit -> unit
(** Print the per-event series and the delay CDF quantiles per policy. *)
