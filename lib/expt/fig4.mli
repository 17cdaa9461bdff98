(** Fig. 4 — flow-level vs event-level scheduling as events grow.

    10 update events at ~70% network utilisation; the mean number of
    flows per event sweeps 15 to 75 (each event draws uniformly within
    +/- 5 of the mean). The paper reports average and tail ECT
    normalised by the flow-level method's maximum; event-level is up to
    ~10x faster on average and ~6x on the tail. Event-level here is the
    grouped FIFO service; flow-level is the round-robin flow queue. *)

val run : ?seeds:int list -> unit -> unit
(** Print raw seconds, the normalised series (divided by the flow-level
    maximum, as in the paper) and the per-point speedups. Seeds default
    to [42; 43]; 10 events, means 15 to 75 by 10. *)
