(** Fig. 7 — P-LMTF vs FIFO across event types and utilisation.

    30 queued events, α = 4, *static* background (the paper keeps
    background traffic fixed for this experiment), utilisation sweeping
    50% to 90%. Two event populations: heterogeneous (10-100 flows per
    event) and synchronous (50-60 flows). The paper reports 60-70%
    (heterogeneous) and 40-50% (synchronous) average-ECT reductions, and
    40-60% / 30-50% tail reductions, roughly flat in utilisation. *)

val run : ?seeds:int list -> ?alpha:int -> unit -> unit
(** Print P-LMTF's percent reductions vs FIFO per utilisation.
    Defaults: seeds [42; 43], α = 4; 30 events, utilisations 0.5-0.9. *)
