(** Fig. 5 — flow-level vs event-level scheduling as the queue grows.

    The number of queued update events sweeps 10 to 50 (each with 10-100
    flows, utilisation 70%); both methods' average and tail ECTs rise
    with queue length, the flow-level method much faster — the paper
    reports ~5x (average) and ~2x (tail) gaps on average. *)

val run : ?seeds:int list -> unit -> unit
(** Print both methods' average and tail ECTs per queue length. Seeds
    default to [42; 43]; event counts 10 to 50 by 10. *)
