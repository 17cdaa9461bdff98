(** Extension experiment: a queue mixing the paper's three update issues.

    The paper's introduction motivates update events with switch
    upgrades, network failures and VM migrations, but its evaluation
    generates only flow-addition events. This experiment schedules a
    queue interleaving all four kinds — additions, VM migrations, switch
    upgrades and link failures — under FIFO / LMTF / P-LMTF, checking
    that the event-level machinery and the schedulers' advantages carry
    over to reroute-dominated events. *)

type mix = {
  additions : int;
  vm_migrations : int;
  switch_upgrades : int;
  link_failures : int;
}

val build_events :
  Scenario.t -> ?mix:mix -> seed:int -> unit -> Event.t list * Net_state.t
(** Build the mixed queue against a scenario ([mix] defaults to 12
    additions, 8 VM migrations, 6 switch upgrades and 4 link
    failures). Switch-upgrade and
    link-failure events are derived from (and the failed links disabled
    in) a dedicated copy of the scenario's network, which is returned —
    run the engine on copies of that state. *)

val run : ?seed:int -> ?alpha:int -> unit -> unit
(** Print the three policies' summaries and reductions vs FIFO. *)
