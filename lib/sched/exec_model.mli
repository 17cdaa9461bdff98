(** Virtual-time execution model.

    The paper measures ECT on a simulated testbed; we map an applied
    {!Nu_update.Planner.t} to virtual seconds with three physical
    components, fixed at 1 ms per programmed hop, a 500 Mbps migration
    rate and 8-way parallelism:

    - rule installation: switches take on the order of a millisecond to
      commit a TCAM/flow-table update, paid once per programmed hop;
    - traffic migration: moving a flow's traffic (and the event's own
      rerouted flows) is make-before-break transfer of its in-flight
      volume at a bounded migration rate — the reason "migrating more
      traffic will certainly take more time" (paper §II);
    - intra-event parallelism: a controller programs independent flows of
      one event concurrently, divided by a parallelism factor.

    Planning effort is metered in work units (feasibility probes); the
    "total plan time" metric of Fig. 6(d) is units x 0.1 ms. *)

val execution_time : Planner.t -> float
(** Virtual seconds to execute an applied plan. *)

val plan_time : work_units:int -> float
