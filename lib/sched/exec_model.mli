(** Virtual-time execution model.

    The paper measures ECT on a simulated testbed; we map an applied
    {!Nu_update.Planner.t} to virtual seconds with three physical
    components, all configurable:

    - rule installation: switches take on the order of a millisecond to
      commit a TCAM/flow-table update, paid once per programmed hop;
    - traffic migration: moving a flow's traffic (and the event's own
      rerouted flows) is make-before-break transfer of its in-flight
      volume at a bounded migration rate — the reason "migrating more
      traffic will certainly take more time" (paper §II);
    - intra-event parallelism: a controller programs independent flows of
      one event concurrently, divided by a parallelism factor.

    Planning effort is metered in work units (feasibility probes); the
    "total plan time" metric of Fig. 6(d) is units x unit cost. *)

type t = {
  rule_install_s : float;  (** Seconds per programmed path hop. *)
  migration_rate_mbps : float;  (** Transfer rate for migrated traffic. *)
  intra_event_parallelism : float;
      (** >= 1; divides an event's execution time. *)
  plan_unit_cost_s : float;  (** Seconds per planner work unit. *)
}

val default : t
(** 1 ms/hop, 500 Mbps migration rate, 8-way parallelism, 0.1 ms/unit. *)

val execution_time : t -> Planner.t -> float
(** Virtual seconds to execute an applied plan. *)

val plan_time : t -> work_units:int -> float
