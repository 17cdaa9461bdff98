(** Extension experiment: a queue mixing the paper's three update issues.

    The paper's introduction motivates update events with switch
    upgrades, network failures and VM migrations, but its evaluation
    generates only flow-addition events. This experiment schedules a
    queue interleaving all four kinds — additions, VM migrations, switch
    upgrades and link failures — under FIFO / LMTF / P-LMTF, checking
    that the event-level machinery and the schedulers' advantages carry
    over to reroute-dominated events. *)

val build_events : Scenario.t -> seed:int -> Event.t list * Net_state.t
(** The queue {!run} schedules, against [scenario]: 12 additions, 8 VM
    migrations, 6 switch upgrades and 4 link failures, interleaved and
    numbered 0..29. Switch-upgrade and link-failure events are derived
    from, and both directions of each failed link disabled in, a
    dedicated copy of the scenario's network, which is returned: run
    the engine on copies of it. *)

val run : ?seed:int -> ?alpha:int -> unit -> unit
(** Build a queue of 12 additions, 8 VM migrations, 6 switch upgrades
    and 4 link failures on a 50%-utilised scenario (the failed links
    disabled in a dedicated copy of its network), then print the three
    policies' summaries and reductions vs FIFO. *)
